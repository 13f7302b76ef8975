type 'a node = {
  key : Ipv4net.t;
  mutable value : 'a option;
  mutable left : 'a node option;
  mutable right : 'a node option;
  mutable parent : 'a node option;
  mutable refs : int; (* safe-iterator pins *)
}

type 'a t = { root : 'a node; mutable count : int }

let make_node ?parent key value =
  { key; value; left = None; right = None; parent; refs = 0 }

let create () = { root = make_node Ipv4net.default None; count = 0 }

(* Which child slot of [n] does a prefix extending [n.key] fall into?
   Determined by the first bit past n.key's length. *)
let branch_bit n addr = Ipv4.bit addr (Ipv4net.prefix_len n.key)
let child n right = if right then n.right else n.left

let set_child n right c =
  if right then n.right <- c else n.left <- c

let slot_of n c =
  (* Which slot of [n] holds node [c]? Physical identity. *)
  match n.left, n.right with
  | Some l, _ when l == c -> false
  | _, Some r when r == c -> true
  | _ -> invalid_arg "Ptree.slot_of: not a child"

(* Longest common prefix of two prefixes (both interpreted as bit
   strings): the glue-node key when two keys diverge. *)
let common_prefix n1 n2 =
  let a1 = Ipv4.to_int (Ipv4net.network n1) and a2 = Ipv4.to_int (Ipv4net.network n2) in
  let maxlen = min (Ipv4net.prefix_len n1) (Ipv4net.prefix_len n2) in
  let x = a1 lxor a2 in
  let rec clz i = if i >= 32 || (x lsr (31 - i)) land 1 = 1 then i else clz (i + 1) in
  let l = min maxlen (clz 0) in
  Ipv4net.make (Ipv4.of_int a1) l

let strictly_contains outer inner =
  Ipv4net.contains outer inner && Ipv4net.prefix_len outer < Ipv4net.prefix_len inner

let insert t net v =
  let rec go n =
    if Ipv4net.equal n.key net then begin
      let old = n.value in
      n.value <- Some v;
      if old = None then t.count <- t.count + 1;
      old
    end
    else begin
      (* n.key strictly contains net here. *)
      let right = branch_bit n (Ipv4net.network net) in
      match child n right with
      | None ->
        let leaf = make_node ~parent:n net (Some v) in
        set_child n right (Some leaf);
        t.count <- t.count + 1;
        None
      | Some c ->
        if Ipv4net.equal c.key net || strictly_contains c.key net then go c
        else if strictly_contains net c.key then begin
          (* Splice a new node for net between n and c. *)
          let m = make_node ~parent:n net (Some v) in
          set_child m (branch_bit m (Ipv4net.network c.key)) (Some c);
          c.parent <- Some m;
          set_child n right (Some m);
          t.count <- t.count + 1;
          None
        end
        else begin
          (* Diverge: glue node at the common prefix, c and a fresh
             leaf underneath. *)
          let gkey = common_prefix net c.key in
          let g = make_node ~parent:n gkey None in
          let leaf = make_node ~parent:g net (Some v) in
          let c_right = branch_bit g (Ipv4net.network c.key) in
          set_child g c_right (Some c);
          set_child g (not c_right) (Some leaf);
          c.parent <- Some g;
          set_child n right (Some g);
          t.count <- t.count + 1;
          None
        end
    end
  in
  go t.root

(* Deepest node whose key equals [net], or None. *)
let rec find_node n net =
  if Ipv4net.equal n.key net then Some n
  else if strictly_contains n.key net then
    match child n (branch_bit n (Ipv4net.network net)) with
    | Some c when Ipv4net.contains c.key net -> find_node c net
    | _ -> None
  else None

let find t net =
  match find_node t.root net with
  | Some n -> n.value
  | None -> None

let n_children n =
  (match n.left with Some _ -> 1 | None -> 0)
  + (match n.right with Some _ -> 1 | None -> 0)

(* Physically remove empty, unpinned nodes, walking up as detachment
   creates new removable ancestors. *)
let rec prune n =
  match n.parent with
  | None -> () (* root stays *)
  | Some p ->
    if n.value = None && n.refs = 0 then begin
      match n.left, n.right with
      | None, None ->
        set_child p (slot_of p n) None;
        prune p
      | Some c, None | None, Some c ->
        set_child p (slot_of p n) (Some c);
        c.parent <- Some p
      | Some _, Some _ -> ()
    end

let remove t net =
  match find_node t.root net with
  | None -> None
  | Some n ->
    (match n.value with
     | None -> None
     | Some _ as old ->
       n.value <- None;
       t.count <- t.count - 1;
       prune n;
       old)

let longest_match t addr =
  let rec go n best =
    let best = match n.value with
      | Some v -> Some (n.key, v)
      | None -> best
    in
    if Ipv4net.prefix_len n.key >= 32 then best
    else
      match child n (branch_bit n addr) with
      | Some c when Ipv4net.contains_addr c.key addr -> go c best
      | _ -> best
  in
  go t.root None

let longest_match_net t net =
  let rec go n best =
    let best = match n.value with
      | Some v -> Some (n.key, v)
      | None -> best
    in
    if Ipv4net.prefix_len n.key >= 32 then best
    else
      match child n (branch_bit n (Ipv4net.network net)) with
      | Some c when Ipv4net.contains c.key net -> go c best
      | _ -> best
  in
  go t.root None

(* Topmost node whose key is a subset of [net], if any. *)
let locate_subtree t net =
  let rec go n =
    if Ipv4net.contains net n.key then Some n
    else if strictly_contains n.key net then
      match child n (branch_bit n (Ipv4net.network net)) with
      | Some c -> go c
      | None -> None
    else None
  in
  go t.root

let rec subtree_has_value n =
  n.value <> None
  || (match n.left with Some c -> subtree_has_value c | None -> false)
  || (match n.right with Some c -> subtree_has_value c | None -> false)

let has_strictly_inside t net =
  match locate_subtree t net with
  | None -> false
  | Some r ->
    if Ipv4net.equal r.key net then
      (match r.left with Some c -> subtree_has_value c | None -> false)
      || (match r.right with Some c -> subtree_has_value c | None -> false)
    else subtree_has_value r

let largest_enclosing_hole t addr =
  let base = match longest_match t addr with
    | Some (net, _) -> net
    | None -> Ipv4net.default
  in
  let rec narrow cand =
    if Ipv4net.prefix_len cand >= 32 || not (has_strictly_inside t cand) then cand
    else narrow (Ipv4net.make addr (Ipv4net.prefix_len cand + 1))
  in
  narrow base

let size t = t.count

let containing t net =
  let rec go n acc =
    let acc = match n.value with
      | Some v -> (n.key, v) :: acc
      | None -> acc
    in
    if Ipv4net.equal n.key net || Ipv4net.prefix_len n.key >= 32 then acc
    else
      match child n (branch_bit n (Ipv4net.network net)) with
      | Some c when Ipv4net.contains c.key net -> go c acc
      | _ -> acc
  in
  List.rev (go t.root [])

let fold_within t net f init =
  match locate_subtree t net with
  | None -> init
  | Some r ->
    let rec go n acc =
      let acc = match n.value with
        | Some v -> f n.key v acc
        | None -> acc
      in
      let acc = match n.left with Some c -> go c acc | None -> acc in
      match n.right with Some c -> go c acc | None -> acc
    in
    go r init

let iter f t =
  let rec go n =
    (match n.value with Some v -> f n.key v | None -> ());
    (match n.left with Some c -> go c | None -> ());
    (match n.right with Some c -> go c | None -> ())
  in
  go t.root

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let clear t =
  t.root.value <- None;
  t.root.left <- None;
  t.root.right <- None;
  t.count <- 0

module Safe_iter = struct
  type 'a it = {
    tree : 'a t;
    mutable cur : 'a node option; (* None = before the first binding *)
    mutable live : bool;
  }

  let start tree = { tree; cur = None; live = true }

  (* Structural pre-order successor, navigating by parent pointers so
     no stack can go stale across mutations. *)
  let struct_succ n =
    match n.left, n.right with
    | Some c, _ | None, Some c -> Some c
    | None, None ->
      let rec climb c =
        match c.parent with
        | None -> None
        | Some p ->
          if (match p.left with Some l -> l == c | None -> false) then
            match p.right with
            | Some r -> Some r
            | None -> climb p
          else climb p
      in
      climb n

  let unpin it =
    match it.cur with
    | None -> ()
    | Some n ->
      n.refs <- n.refs - 1;
      if n.value = None then prune n

  let stop it =
    if it.live then begin
      unpin it;
      it.cur <- None;
      it.live <- false
    end

  let next it =
    if not it.live then None
    else begin
      let rec seek = function
        | None -> None
        | Some n ->
          if n.value <> None then Some n else seek (struct_succ n)
      in
      let succ = match it.cur with
        | None -> seek (Some it.tree.root)
        | Some n -> seek (struct_succ n)
      in
      match succ with
      | None ->
        stop it;
        None
      | Some n ->
        n.refs <- n.refs + 1;
        unpin it;
        it.cur <- Some n;
        (match n.value with
         | Some v -> Some (n.key, v)
         | None -> assert false)
    end

  let pinned it =
    match it.cur with
    | Some n -> Some n.key
    | None -> None
end

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let count = ref 0 in
  let rec walk n =
    if n.value <> None then incr count;
    if n.parent = None && not (n == t.root) then
      fail "non-root node %a has no parent" Ipv4net.pp n.key;
    if n.value = None && n.refs = 0 && not (n == t.root) && n_children n < 2
    then fail "unpruned empty node %a" Ipv4net.pp n.key;
    let check_child right = function
      | None -> ()
      | Some c ->
        if not (strictly_contains n.key c.key) then
          fail "child %a not inside parent %a" Ipv4net.pp c.key Ipv4net.pp n.key;
        if branch_bit n (Ipv4net.network c.key) <> right then
          fail "child %a in wrong slot of %a" Ipv4net.pp c.key Ipv4net.pp n.key;
        (match c.parent with
         | Some p when p == n -> ()
         | _ -> fail "bad parent pointer at %a" Ipv4net.pp c.key);
        walk c
    in
    check_child false n.left;
    check_child true n.right
  in
  match walk t.root with
  | () ->
    if !count <> t.count then
      Error (Printf.sprintf "count mismatch: stored %d, found %d" t.count !count)
    else Ok (Printf.sprintf "%d bindings, structure consistent" t.count)
  | exception Bad msg -> Error msg
