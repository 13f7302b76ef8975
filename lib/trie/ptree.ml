(* Keys are Ipv4net.t, an immediate int packing network lsl 6 lor
   length, and every test below is arithmetic on that int. A missing
   child or parent is the tree's own [nil] node, never an option. *)
type 'a node = {
  key : Ipv4net.t;
  mutable value : 'a option;
  mutable left : 'a node;
  mutable right : 'a node;
  mutable parent : 'a node;
  mutable refs : int; (* safe-iterator pins *)
}

type 'a t = { root : 'a node; nil : 'a node; mutable count : int }

let make_node nil parent key value =
  { key; value; left = nil; right = nil; parent; refs = 0 }

let create () =
  let rec nil =
    { key = Ipv4net.default; value = None; left = nil; right = nil;
      parent = nil; refs = 0 }
  in
  { root = make_node nil nil Ipv4net.default None; nil; count = 0 }

let[@inline] len (k : Ipv4net.t) = (k :> int) land 63
let[@inline] same (a : Ipv4net.t) (b : Ipv4net.t) = (a :> int) = (b :> int)

(* [outer] contains [inner]: the packed keys agree on every bit above
   the outer length (see Ipv4net.contains). *)
let[@inline] contains (outer : Ipv4net.t) (inner : Ipv4net.t) =
  len outer <= len inner
  && ((outer :> int) lxor (inner :> int)) lsr (38 - len outer) = 0

let[@inline] strictly_contains outer inner =
  len outer < len inner && contains outer inner

(* Which child slot of [n] does a key extending [n.key] fall into?
   The first address bit past n.key's length (bit 37 of a packed key
   is the address's most significant bit). *)
let[@inline] branch n (k : Ipv4net.t) = ((k :> int) lsr (37 - len n.key)) land 1 = 1
let[@inline] child n right = if right then n.right else n.left

let set_child n right c =
  if right then n.right <- c else n.left <- c

let[@inline] has_value n = match n.value with Some _ -> true | None -> false

(* Longest common prefix of two keys (both read as bit strings): the
   glue-node key when two keys diverge. *)
let common_prefix (a : Ipv4net.t) (b : Ipv4net.t) =
  let x = ((a :> int) lxor (b :> int)) lsr 6 in
  let rec clz i = if i >= 32 || (x lsr (31 - i)) land 1 = 1 then i else clz (i + 1) in
  Ipv4net.make (Ipv4net.network a) (min (min (len a) (len b)) (clz 0))

(* [n.key] contains [k]. *)
let rec insert_at t n k v =
  if same n.key k then begin
    let old = n.value in
    if not (has_value n) then t.count <- t.count + 1;
    n.value <- Some v;
    old
  end
  else begin
    let right = branch n k in
    let c = child n right in
    if c == t.nil then begin
      set_child n right (make_node t.nil n k (Some v));
      t.count <- t.count + 1;
      None
    end
    else if contains c.key k then insert_at t c k v
    else if contains k c.key then begin
      (* Splice a new node for k between n and c. *)
      let m = make_node t.nil n k (Some v) in
      set_child m (branch m c.key) c;
      c.parent <- m;
      set_child n right m;
      t.count <- t.count + 1;
      None
    end
    else begin
      (* Diverge: glue node at the common prefix, c and a fresh leaf
         underneath. *)
      let g = make_node t.nil n (common_prefix k c.key) None in
      let leaf = make_node t.nil g k (Some v) in
      let c_right = branch g c.key in
      set_child g c_right c;
      set_child g (not c_right) leaf;
      c.parent <- g;
      set_child n right g;
      t.count <- t.count + 1;
      None
    end
  end

let insert t net v = insert_at t t.root net v

(* The node whose key is [k], or [nil]; [n.key] contains [k]. *)
let rec find_node nil n k =
  if same n.key k then n
  else
    let c = child n (branch n k) in
    if c != nil && contains c.key k then find_node nil c k else nil

let find t net = (find_node t.nil t.root net).value

let n_children nil n =
  (if n.left != nil then 1 else 0) + if n.right != nil then 1 else 0

(* Physically remove empty, unpinned nodes, walking up as detachment
   creates new removable ancestors. *)
let rec prune nil n =
  let p = n.parent in
  if p != nil (* the root stays *) && (not (has_value n)) && n.refs = 0 then begin
    let slot = p.right == n in
    if n.left == nil && n.right == nil then begin
      set_child p slot nil;
      prune nil p
    end
    else if n.left == nil || n.right == nil then begin
      let c = if n.left == nil then n.right else n.left in
      set_child p slot c;
      c.parent <- p
    end
  end

let remove t net =
  let n = find_node t.nil t.root net in
  match n.value with
  | None -> None
  | Some _ as old ->
    n.value <- None;
    t.count <- t.count - 1;
    prune t.nil n;
    old

(* Deepest node on the path to [k] with a value and a key containing
   [k], or [nil]. *)
let rec deepest_match nil n k best =
  let best = if has_value n then n else best in
  let c = child n (branch n k) in
  if c != nil && contains c.key k then deepest_match nil c k best else best

let binding n = match n.value with Some v -> Some (n.key, v) | None -> None

let longest_match_net t net = binding (deepest_match t.nil t.root net t.nil)
let longest_match t addr = longest_match_net t (Ipv4net.host addr)

(* Topmost node whose key is a subset of [k], or [nil]. *)
let rec locate_subtree nil n k =
  if contains k n.key then n
  else if strictly_contains n.key k then
    let c = child n (branch n k) in
    if c == nil then nil else locate_subtree nil c k
  else nil

let rec subtree_has_value nil n =
  n != nil
  && (has_value n || subtree_has_value nil n.left || subtree_has_value nil n.right)

let has_strictly_inside t net =
  let r = locate_subtree t.nil t.root net in
  if r == t.nil then false
  else if same r.key net then
    subtree_has_value t.nil r.left || subtree_has_value t.nil r.right
  else subtree_has_value t.nil r

let largest_enclosing_hole t addr =
  let base = match longest_match t addr with
    | Some (net, _) -> net
    | None -> Ipv4net.default
  in
  let rec narrow cand =
    if len cand >= 32 || not (has_strictly_inside t cand) then cand
    else narrow (Ipv4net.make addr (len cand + 1))
  in
  narrow base

let size t = t.count

let containing t net =
  let rec go n acc =
    let acc = match n.value with
      | Some v -> (n.key, v) :: acc
      | None -> acc
    in
    if same n.key net then acc
    else
      let c = child n (branch n net) in
      if c != t.nil && contains c.key net then go c acc else acc
  in
  List.rev (go t.root [])

let fold_within t net f init =
  let nil = t.nil in
  let rec go n acc =
    if n == nil then acc
    else
      let acc = match n.value with
        | Some v -> f n.key v acc
        | None -> acc
      in
      go n.right (go n.left acc)
  in
  go (locate_subtree nil t.root net) init

let iter f t =
  let nil = t.nil in
  let rec go n =
    if n != nil then begin
      (match n.value with Some v -> f n.key v | None -> ());
      go n.left;
      go n.right
    end
  in
  go t.root

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

(* Give [n] the children [l] and [r], emptied of its own binding. *)
let adopt nil n l r =
  n.value <- None;
  n.left <- l;
  n.right <- r;
  if l != nil then l.parent <- n;
  if r != nil then r.parent <- n

(* What takes [n]'s slot once every binding below it is gone: as after
   removing them one by one, a node a safe iterator pins stays
   (emptied), with the glue that joins two such nodes. The rest is
   dropped unwritten. *)
let rec sweep nil n =
  if n == nil then nil
  else
    let l = sweep nil n.left and r = sweep nil n.right in
    if n.refs = 0 && (l == nil || r == nil) then if l == nil then r else l
    else begin
      adopt nil n l r;
      n
    end

let clear t =
  adopt t.nil t.root (sweep t.nil t.root.left) (sweep t.nil t.root.right);
  t.count <- 0

module Safe_iter = struct
  type 'a it = {
    tree : 'a t;
    mutable cur : 'a node; (* the tree's nil = before the first binding *)
    mutable live : bool;
  }

  let start tree = { tree; cur = tree.nil; live = true }

  (* Structural pre-order successor, navigating by parent pointers so
     no stack can go stale across mutations; [nil] at the end. *)
  let struct_succ nil n =
    if n.left != nil then n.left
    else if n.right != nil then n.right
    else
      let rec climb c =
        let p = c.parent in
        if p == nil then nil
        else if p.left == c && p.right != nil then p.right
        else climb p
      in
      climb n

  (* The first node from [n] on, in pre-order, that holds a binding. *)
  let rec seek nil n = if n == nil || has_value n then n else seek nil (struct_succ nil n)

  let unpin it =
    let n = it.cur in
    if n != it.tree.nil then begin
      n.refs <- n.refs - 1;
      if not (has_value n) then prune it.tree.nil n
    end

  let stop it =
    if it.live then begin
      unpin it;
      it.cur <- it.tree.nil;
      it.live <- false
    end

  let next it =
    if not it.live then None
    else begin
      let nil = it.tree.nil in
      let n =
        if it.cur == nil then seek nil it.tree.root else seek nil (struct_succ nil it.cur)
      in
      if n == nil then begin
        stop it;
        None
      end
      else begin
        n.refs <- n.refs + 1;
        unpin it;
        it.cur <- n;
        binding n
      end
    end

  let pinned it = if it.cur == it.tree.nil then None else Some it.cur.key
end

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let nil = t.nil in
  let count = ref 0 in
  let rec walk n =
    if has_value n then incr count;
    if n.parent == nil && n != t.root then
      fail "non-root node %a has no parent" Ipv4net.pp n.key;
    if (not (has_value n)) && n.refs = 0 && n != t.root && n_children nil n < 2
    then fail "unpruned empty node %a" Ipv4net.pp n.key;
    let check_child right c =
      if c != nil then begin
        if not (strictly_contains n.key c.key) then
          fail "child %a not inside parent %a" Ipv4net.pp c.key Ipv4net.pp n.key;
        if branch n c.key <> right then
          fail "child %a in wrong slot of %a" Ipv4net.pp c.key Ipv4net.pp n.key;
        if c.parent != n then fail "bad parent pointer at %a" Ipv4net.pp c.key;
        walk c
      end
    in
    check_child false n.left;
    check_child true n.right
  in
  match walk t.root with
  | () ->
    if nil.left != nil || nil.right != nil || nil.parent != nil || has_value nil
    then Error "the nil sentinel was written to"
    else if !count <> t.count then
      Error (Printf.sprintf "count mismatch: stored %d, found %d" t.count !count)
    else Ok (Printf.sprintf "%d bindings, structure consistent" t.count)
  | exception Bad msg -> Error msg
