(* The FIB compiled for lookup: /16 blocks of sorted, parent-linked
   keys under a /8 directory, plus a trie for the few shorter prefixes.
   Layout and bounds are stated in fib.mli. *)

type entry = {
  net : Ipv4net.t;
  nexthop : Ipv4.t;
  ifname : string;
  protocol : string;
}

(* A block key is one int. Its sort field, [key lsr link_bits], is the
   network's low 16 bits over (length - 16) in 5 bits, so integer order
   is (network, length) order. Its low [link_bits] hold 1 + the index
   of the nearest enclosing key in the same block, 0 for none; a block
   holds at most 2^17 - 1 prefixes, so the link fits. *)
let link_bits = 17
let link_mask = (1 lsl link_bits) - 1

type block = { keys : int array; vals : entry array }

type t = {
  dir : block array array;
      (* 256 slots by /8: [no_blocks] until a prefix lands under that
         /8, then 256 blocks by the next octet. *)
  short : entry Ptree.t; (* prefixes shorter than /16 *)
  mutable long : int; (* prefixes held in blocks *)
}

let no_blocks : block array = [||]
let empty = { keys = [||]; vals = [||] }

let create () =
  { dir = Array.make 256 no_blocks; short = Ptree.create (); long = 0 }

let is_short net = Ipv4net.prefix_len net < 16

(* The /16 a long prefix falls in, as a 16-bit slot number. *)
let slot net = Ipv4.to_int (Ipv4net.network net) lsr 16

let field_of net =
  ((Ipv4.to_int (Ipv4net.network net) land 0xffff) lsl 5)
  lor (Ipv4net.prefix_len net - 16)

(* Does the prefix with sort field [f] cover [low], a 16-bit address
   within the block? Its top (length - 16) bits must agree. *)
let covers f low = (low lxor (f lsr 5)) lsr (16 - (f land 31)) = 0

(* Number of keys in [lo, hi) below [bound]. Top-level rather than a
   local closure so that lookup allocates nothing but its result. *)
let rec rank keys bound lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if keys.(mid) < bound then rank keys bound (mid + 1) hi
    else rank keys bound lo mid

(* Where field [f] is or would go, and whether it is there. *)
let locate b f =
  let i = rank b.keys (f lsl link_bits) 0 (Array.length b.keys) in
  (i, i < Array.length b.keys && b.keys.(i) lsr link_bits = f)

(* Rewrite every link, keeping the chain of open enclosing keys on a
   stack. A key that covers the next one's network encloses it, since
   sorting puts the shorter of two nested keys first. Nested keys in
   one block differ in length, so the chain is at most 17 deep. *)
let relink keys =
  let stack = Array.make 17 0 in
  let depth = ref 0 in
  Array.iteri
    (fun i k ->
       let f = k lsr link_bits in
       while
         !depth > 0
         && not (covers (keys.(stack.(!depth - 1)) lsr link_bits) (f lsr 5))
       do
         decr depth
       done;
       let link = if !depth = 0 then 0 else stack.(!depth - 1) + 1 in
       keys.(i) <- (f lsl link_bits) lor link;
       stack.(!depth) <- i;
       incr depth)
    keys

let inserted a i x =
  Array.init (Array.length a + 1) (fun j ->
      if j < i then a.(j) else if j = i then x else a.(j - 1))

let removed a i =
  Array.init (Array.length a - 1) (fun j -> a.(if j < i then j else j + 1))

let add t e =
  if is_short e.net then ignore (Ptree.insert t.short e.net e)
  else begin
    let s = slot e.net in
    let blocks =
      let bs = t.dir.(s lsr 8) in
      if bs != no_blocks then bs
      else begin
        let bs = Array.make 256 empty in
        t.dir.(s lsr 8) <- bs;
        bs
      end
    in
    let b = blocks.(s land 0xff) in
    let f = field_of e.net in
    match locate b f with
    | i, true -> b.vals.(i) <- e
    | i, false ->
      let keys = inserted b.keys i (f lsl link_bits) in
      relink keys;
      blocks.(s land 0xff) <- { keys; vals = inserted b.vals i e };
      t.long <- t.long + 1
  end

let delete t net =
  if is_short net then Ptree.remove t.short net <> None
  else
    let s = slot net in
    let blocks = t.dir.(s lsr 8) in
    if blocks == no_blocks then false
    else
      let b = blocks.(s land 0xff) in
      match locate b (field_of net) with
      | _, false -> false
      | i, true ->
        if Array.length b.keys = 1 then begin
          blocks.(s land 0xff) <- empty;
          if Array.for_all (fun b -> b == empty) blocks then
            t.dir.(s lsr 8) <- no_blocks
        end
        else begin
          let keys = removed b.keys i in
          relink keys;
          blocks.(s land 0xff) <- { keys; vals = removed b.vals i }
        end;
        t.long <- t.long - 1;
        true

let short_match t addr = Option.map snd (Ptree.longest_match t.short addr)

(* Walk up the parent links from key [i] to the first that covers
   [low]; past the top of the chain, only a short prefix can match. *)
let rec climb t addr b low i =
  if i < 0 then short_match t addr
  else
    let k = b.keys.(i) in
    if covers (k lsr link_bits) low then Some b.vals.(i)
    else climb t addr b low ((k land link_mask) - 1)

(* The last key at or before (address, /32) lies inside the longest
   block match if there is one, so that match is on its parent chain. *)
let lookup t addr =
  let a = Ipv4.to_int addr in
  let blocks = t.dir.(a lsr 24) in
  if blocks == no_blocks then short_match t addr
  else
    let b = blocks.((a lsr 16) land 0xff) in
    let low = a land 0xffff in
    let n = Array.length b.keys in
    climb t addr b low (rank b.keys ((((low lsl 5) lor 16) + 1) lsl link_bits) 0 n - 1)

let get t net =
  if is_short net then Ptree.find t.short net
  else
    let s = slot net in
    let blocks = t.dir.(s lsr 8) in
    if blocks == no_blocks then None
    else
      let b = blocks.(s land 0xff) in
      match locate b (field_of net) with
      | i, true -> Some b.vals.(i)
      | _, false -> None

let size t = t.long + Ptree.size t.short

(* Blocks are already in (network, length) order; merge the short
   prefixes in, building the list back to front. *)
let entries t =
  let acc = ref [] in
  let shorts = ref (List.rev_map snd (Ptree.to_list t.short)) in
  let rec shorts_after net =
    match !shorts with
    | e :: rest when Ipv4net.compare e.net net > 0 ->
      acc := e :: !acc;
      shorts := rest;
      shorts_after net
    | _ -> ()
  in
  for hi = 255 downto 0 do
    let blocks = t.dir.(hi) in
    for lo = Array.length blocks - 1 downto 0 do
      let vals = blocks.(lo).vals in
      for i = Array.length vals - 1 downto 0 do
        shorts_after vals.(i).net;
        acc := vals.(i) :: !acc
      done
    done
  done;
  List.rev_append !shorts !acc
