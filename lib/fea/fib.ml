(* The FIB compiled for lookup: /16 arrays of sorted, parent-linked
   keys under a /8 directory, a reference-counted next-hop table the
   keys index, and a trie for the few shorter prefixes. Layout and
   bounds are stated in fib.mli. *)

type entry = {
  net : Ipv4net.t;
  nexthop : Ipv4.t;
  ifname : string;
  protocol : string;
}

(* A key is one int of three fields, high to low:
   - the sort field: the network's low 16 bits over (length - 16) in 5
     bits, so integer order is (network, length) order;
   - the link: 1 + the index of the nearest enclosing key in the same
     /16, 0 for none (a /16 holds at most 2^17 - 1 prefixes);
   - the prefix's slot in the next-hop table.
   21 + 17 + 24 = 62 bits, so keys are non-negative. *)
let hop_bits = 24
let hop_mask = (1 lsl hop_bits) - 1
let link_bits = 17
let link_mask = (1 lsl link_bits) - 1
let field_shift = hop_bits + link_bits

(* The next-hop table interns (nexthop, ifname, protocol): an entry's
   net is ignored here. *)
module Hops = Hashtbl.Make (struct
    type t = entry

    let equal a b =
      Ipv4.equal a.nexthop b.nexthop
      && String.equal a.ifname b.ifname
      && String.equal a.protocol b.protocol

    let hash e = Hashtbl.hash (Ipv4.to_int e.nexthop)
  end)

type t = {
  dir : int array array array;
      (* 256 slots by /8: [no_blocks] until a prefix lands under that
         /8, then 256 key arrays by the next octet. *)
  short : int Ptree.t; (* prefixes shorter than /16, to their slot *)
  mutable long : int; (* prefixes held in key arrays *)
  (* The next-hop table, one slot per interned triple. A free slot
     holds [no_hop], [None] and 0, and is on [free] if below [used]. *)
  mutable hops : entry array; (* the triple, its net unused *)
  mutable results : Dataplane.lookup_result option array;
  mutable refs : int array; (* prefixes naming the slot *)
  mutable free : int list;
  mutable used : int;
  index : int Hops.t;
}

let no_blocks : int array array = [||]
let empty : int array = [||]
let no_hop = { net = Ipv4net.default; nexthop = Ipv4.zero; ifname = ""; protocol = "" }
let first_hops = 8

let create () =
  { dir = Array.make 256 no_blocks; short = Ptree.create (); long = 0;
    hops = Array.make first_hops no_hop;
    results = Array.make first_hops None;
    refs = Array.make first_hops 0;
    free = []; used = 0; index = Hops.create first_hops }

let grow t =
  let n = Array.length t.hops in
  if n > hop_mask then
    invalid_arg "Fib.add: more than 2^24 distinct (nexthop, ifname, protocol)";
  let n' = min (2 * n) (hop_mask + 1) in
  let extend a x = Array.append a (Array.make (n' - n) x) in
  t.hops <- extend t.hops no_hop;
  t.results <- extend t.results None;
  t.refs <- extend t.refs 0

(* The slot of [e]'s triple, counting one more prefix on it. *)
let intern t e =
  match Hops.find t.index e with
  | h ->
    t.refs.(h) <- t.refs.(h) + 1;
    h
  | exception Not_found ->
    let h =
      match t.free with
      | h :: rest ->
        t.free <- rest;
        h
      | [] ->
        if t.used = Array.length t.hops then grow t;
        t.used <- t.used + 1;
        t.used - 1
    in
    let hop = { e with net = Ipv4net.default } in
    t.hops.(h) <- hop;
    t.results.(h) <-
      Some
        { Dataplane.lr_nexthop = e.nexthop; lr_ifname = e.ifname;
          lr_connected = String.equal e.protocol "connected" };
    t.refs.(h) <- 1;
    Hops.add t.index hop h;
    h

(* One prefix fewer on slot [h]: at zero the slot is freed, and once no
   slot is live the table shrinks back to its size at [create]. *)
let release t h =
  t.refs.(h) <- t.refs.(h) - 1;
  if t.refs.(h) = 0 then begin
    Hops.remove t.index t.hops.(h);
    if Hops.length t.index = 0 then begin
      Hops.reset t.index;
      t.hops <- Array.make first_hops no_hop;
      t.results <- Array.make first_hops None;
      t.refs <- Array.make first_hops 0;
      t.free <- [];
      t.used <- 0
    end
    else begin
      t.hops.(h) <- no_hop;
      t.results.(h) <- None;
      t.free <- h :: t.free
    end
  end

let is_short net = Ipv4net.prefix_len net < 16

(* The /16 a long prefix falls in, as a 16-bit slot number. *)
let slot net = Ipv4.to_int (Ipv4net.network net) lsr 16

let field_of net =
  ((Ipv4.to_int (Ipv4net.network net) land 0xffff) lsl 5)
  lor (Ipv4net.prefix_len net - 16)

(* Does the prefix with sort field [f] cover [low], a 16-bit address
   within the /16? Its top (length - 16) bits must agree. *)
let covers f low = (low lxor (f lsr 5)) lsr (16 - (f land 31)) = 0

(* Number of keys in [lo, hi) below [bound]. Top-level rather than a
   local closure so that a lookup allocates nothing. *)
let rec rank keys bound lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if keys.(mid) < bound then rank keys bound (mid + 1) hi
    else rank keys bound lo mid

(* Where field [f] is or would go in [keys]. *)
let position keys f = rank keys (f lsl field_shift) 0 (Array.length keys)
let found keys i f = i < Array.length keys && keys.(i) lsr field_shift = f

(* Rewrite every link, keeping the chain of open enclosing keys on a
   stack. A key that covers the next one's network encloses it, since
   sorting puts the shorter of two nested keys first. Nested keys in
   one /16 differ in length, so the chain is at most 17 deep. *)
let relink keys =
  let stack = Array.make 17 0 in
  let depth = ref 0 in
  Array.iteri
    (fun i k ->
       let f = k lsr field_shift in
       while
         !depth > 0
         && not (covers (keys.(stack.(!depth - 1)) lsr field_shift) (f lsr 5))
       do
         decr depth
       done;
       let link = if !depth = 0 then 0 else stack.(!depth - 1) + 1 in
       keys.(i) <- (f lsl field_shift) lor (link lsl hop_bits) lor (k land hop_mask);
       stack.(!depth) <- i;
       incr depth)
    keys

let inserted a i x =
  Array.init (Array.length a + 1) (fun j ->
      if j < i then a.(j) else if j = i then x else a.(j - 1))

let removed a i =
  Array.init (Array.length a - 1) (fun j -> a.(if j < i then j else j + 1))

let add t e =
  let h = intern t e in
  if is_short e.net then
    Option.iter (release t) (Ptree.insert t.short e.net h)
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
    let keys = blocks.(s land 0xff) in
    let f = field_of e.net in
    let i = position keys f in
    if found keys i f then begin
      let k = keys.(i) in
      keys.(i) <- k land lnot hop_mask lor h;
      release t (k land hop_mask)
    end
    else begin
      let keys = inserted keys i (f lsl field_shift lor h) in
      relink keys;
      blocks.(s land 0xff) <- keys;
      t.long <- t.long + 1
    end
  end

let delete t net =
  if is_short net then
    match Ptree.remove t.short net with
    | Some h ->
      release t h;
      true
    | None -> false
  else
    let s = slot net in
    let blocks = t.dir.(s lsr 8) in
    if blocks == no_blocks then false
    else
      let keys = blocks.(s land 0xff) in
      let f = field_of net in
      let i = position keys f in
      if not (found keys i f) then false
      else begin
        release t (keys.(i) land hop_mask);
        if Array.length keys = 1 then begin
          blocks.(s land 0xff) <- empty;
          if Array.for_all (fun keys -> keys == empty) blocks then
            t.dir.(s lsr 8) <- no_blocks
        end
        else begin
          let keys = removed keys i in
          relink keys;
          blocks.(s land 0xff) <- keys
        end;
        t.long <- t.long - 1;
        true
      end

(* Walk up the parent links from key [i] to the first that covers
   [low], and return that key; -1 past the top of the chain. *)
let rec climb keys low i =
  if i < 0 then -1
  else
    let k = keys.(i) in
    if covers (k lsr field_shift) low then k
    else climb keys low (((k lsr hop_bits) land link_mask) - 1)

(* The key of the longest /16-or-longer prefix covering address [a], or
   -1. The last key at or before (address, /32) lies inside that
   prefix if there is one, so the prefix is on its parent chain. *)
let long_match t a =
  let blocks = t.dir.(a lsr 24) in
  if blocks == no_blocks then -1
  else
    let keys = blocks.((a lsr 16) land 0xff) in
    let low = a land 0xffff in
    climb keys low
      (rank keys ((((low lsl 5) lor 16) + 1) lsl field_shift) 0
         (Array.length keys)
       - 1)

let forward t addr =
  let k = long_match t (Ipv4.to_int addr) in
  if k >= 0 then t.results.(k land hop_mask)
  else
    match Ptree.longest_match t.short addr with
    | Some (_, h) -> t.results.(h)
    | None -> None

(* An entry rebuilt from its prefix and its slot. *)
let entry_at t net h = { (t.hops.(h)) with net }

(* The entry of key [k] in the /16 numbered [s]. *)
let entry_of_key t s k =
  let f = k lsr field_shift in
  entry_at t
    (Ipv4net.make (Ipv4.of_int ((s lsl 16) lor (f lsr 5))) ((f land 31) + 16))
    (k land hop_mask)

let lookup t addr =
  let a = Ipv4.to_int addr in
  let k = long_match t a in
  if k >= 0 then Some (entry_of_key t (a lsr 16) k)
  else
    Option.map
      (fun (net, h) -> entry_at t net h)
      (Ptree.longest_match t.short addr)

let get t net =
  if is_short net then Option.map (entry_at t net) (Ptree.find t.short net)
  else
    let s = slot net in
    let blocks = t.dir.(s lsr 8) in
    if blocks == no_blocks then None
    else
      let keys = blocks.(s land 0xff) in
      let f = field_of net in
      let i = position keys f in
      if found keys i f then Some (entry_at t net (keys.(i) land hop_mask))
      else None

let size t = t.long + Ptree.size t.short

(* Key arrays are already in (network, length) order; merge the short
   prefixes in, building the list back to front. *)
let entries t =
  let acc = ref [] in
  let shorts =
    ref (List.rev_map (fun (net, h) -> entry_at t net h) (Ptree.to_list t.short))
  in
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
      let keys = blocks.(lo) in
      for i = Array.length keys - 1 downto 0 do
        let e = entry_of_key t ((hi lsl 8) lor lo) keys.(i) in
        shorts_after e.net;
        acc := e :: !acc
      done
    done
  done;
  List.rev_append !shorts !acc
