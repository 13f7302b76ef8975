(* Keys live in two flat arrays beside the values, so comparisons read
   unboxed floats and ints and no operation allocates an entry. *)
type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable len : int;
  mutable stamp : int;
  dummy : 'a;
}

let create ~dummy () =
  { prio = [||]; seq = [||]; value = [||]; len = 0; stamp = 0; dummy }

let size h = h.len
let is_empty h = h.len = 0
let stamp h = h.stamp

let resize h cap =
  let prio = Array.make cap 0.0 and seq = Array.make cap 0 in
  let value = Array.make cap h.dummy in
  Array.blit h.prio 0 prio 0 h.len;
  Array.blit h.seq 0 seq 0 h.len;
  Array.blit h.value 0 value 0 h.len;
  h.prio <- prio;
  h.seq <- seq;
  h.value <- value

(* A fresh entry carries the largest seq so far, so it rises only past
   strictly larger priorities. *)
let push h p v =
  if h.len = Array.length h.value then resize h (max 16 (2 * h.len));
  let s = h.stamp in
  h.stamp <- s + 1;
  let prio = h.prio and seq = h.seq and value = h.value in
  let i = ref h.len in
  h.len <- h.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if p < Array.unsafe_get prio parent then begin
      Array.unsafe_set prio !i (Array.unsafe_get prio parent);
      Array.unsafe_set seq !i (Array.unsafe_get seq parent);
      Array.unsafe_set value !i (Array.unsafe_get value parent);
      i := parent
    end
    else rising := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set seq !i s;
  Array.unsafe_set value !i v

(* Move the entry at [src] into the hole at [hole] and sift it down
   among the first [h.len] slots. [src] is either [hole] itself or a
   slot past [h.len], so the walk never overwrites it early. *)
let sift_down h hole src =
  let prio = h.prio and seq = h.seq and value = h.value and n = h.len in
  let p = Array.unsafe_get prio src and s = Array.unsafe_get seq src in
  let v = Array.unsafe_get value src in
  let i = ref hole in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then
          let pl = Array.unsafe_get prio l and pr = Array.unsafe_get prio r in
          if pr < pl
             || (pr = pl && Array.unsafe_get seq r < Array.unsafe_get seq l)
          then r
          else l
        else l
      in
      let pc = Array.unsafe_get prio c in
      if pc < p || (pc = p && Array.unsafe_get seq c < s) then begin
        Array.unsafe_set prio !i pc;
        Array.unsafe_set seq !i (Array.unsafe_get seq c);
        Array.unsafe_set value !i (Array.unsafe_get value c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set seq !i s;
  Array.unsafe_set value !i v

let empty () = invalid_arg "Minheap: empty heap"
let[@inline] peek h =
  if h.len = 0 then empty () else Array.unsafe_get h.value 0

let[@inline] peek_seq h =
  if h.len = 0 then empty () else Array.unsafe_get h.seq 0

let pop h =
  if h.len = 0 then empty ()
  else begin
    let top = Array.unsafe_get h.value 0 in
    let n = h.len - 1 in
    h.len <- n;
    if n > 0 then sift_down h 0 n;
    Array.unsafe_set h.value n h.dummy;
    top
  end

let filter h keep =
  let prio = h.prio and seq = h.seq and value = h.value in
  let n = ref 0 in
  for i = 0 to h.len - 1 do
    let v = Array.unsafe_get value i in
    if keep v then begin
      Array.unsafe_set prio !n (Array.unsafe_get prio i);
      Array.unsafe_set seq !n (Array.unsafe_get seq i);
      Array.unsafe_set value !n v;
      incr n
    end
  done;
  Array.fill value !n (h.len - !n) h.dummy;
  h.len <- !n;
  if Array.length value > 64 && 4 * h.len < Array.length value then
    resize h (max 16 (2 * h.len));
  for i = (h.len / 2) - 1 downto 0 do
    sift_down h i i
  done
