(* Two-lane (urgent/bulk) work queue with a per-prefix ordering guard
   and per-prefix coalescing.

   Used by the BGP->RIB and RIB->FEA stages to let fresh updates (route
   flaps) overtake a bulk table-load backlog while preserving per-prefix
   FIFO order — the paper's §5.1.2 deletion-vs-re-add discipline must
   hold across lanes, not just within one.

   The guard: an urgent push for a prefix that still has entries queued
   in the bulk lane is demoted to the bulk lane, so it cannot overtake
   the older work for its own prefix. Cross-prefix reordering is exactly
   the point; same-prefix reordering is never allowed.

   The contract the guard relies on: every drain takes the urgent lane
   dry before touching the bulk lane, which [drain] does by
   construction. Given that, for any prefix p the queue preserves push
   order: older-urgent-then-newer-bulk drains in order because urgent
   goes first, and older-bulk-then-newer-urgent is demoted into the
   bulk lane behind the older entry.

   Coalescing: a push with [merge] first offers the new entry to the
   newest entry pending for its prefix in its lane. The merge may fold
   the two into one, which keeps the older entry's place; cancel both;
   or refuse, and the new entry queues behind. Each lane keeps, per
   prefix, its newest live cell, and each cell the newest live cell
   that was pending for its prefix when it was pushed, so a cancelled
   entry hands the prefix back to the one it queued behind. Cancelled
   cells stay in the lane's FIFO until a drain passes them, or until a
   cancellation leaves more of them than live entries plus 64, when
   the lane is compacted.

   [ordered:false] disables the guard — the deliberately broken variant
   the simulation fuzzer must catch (see Simtest). *)

type lane = Urgent | Bulk

type change = Add | Replace | Delete

let coalesce pending next =
  match pending, next with
  | Add, Delete -> None
  | Add, (Add | Replace) -> Some Add
  | (Replace | Delete), (Add | Replace) -> Some Replace
  | (Replace | Delete), Delete -> Some Delete

type 'a merge = Merged of 'a | Cancelled | Refused

let merge_changes ?(compatible = fun _ _ -> true) (c0, r0, _) (c1, r1, x1) =
  if not (compatible r0 r1) then Refused
  else
    match coalesce c0 c1 with
    | None -> Cancelled
    | Some c -> Merged (c, r1, x1)

type 'a cell = {
  net : Ipv4net.t;
  mutable v : 'a;
  mutable live : bool;
  mutable older : 'a cell option; (* dropped at retirement *)
}

type 'a fifo = {
  cells : 'a cell Queue.t;
  newest : (Ipv4net.t, 'a cell) Hashtbl.t; (* per prefix, while live *)
  mutable live_count : int;
  mutable dead_count : int; (* cancelled cells still in [cells] *)
}

type 'a t = {
  urgent : 'a fifo;
  bulk : 'a fifo;
  ordered : bool;
  mutable demoted : int;
  mutable peak : int;
}

(* Smallest to start: a router holds one queue per peer and two more,
   most stay near empty, and the index doubles as a backlog grows. *)
let fifo () =
  { cells = Queue.create (); newest = Hashtbl.create 1; live_count = 0;
    dead_count = 0 }

let create ?(ordered = true) () =
  { urgent = fifo (); bulk = fifo (); ordered; demoted = 0; peak = 0 }

let urgent_length t = t.urgent.live_count
let bulk_length t = t.bulk.live_count
let length t = urgent_length t + bulk_length t
let is_empty t = length t = 0
let demoted t = t.demoted
let peak_length t = t.peak
let fifo_of t = function Urgent -> t.urgent | Bulk -> t.bulk
let mem t lane net = Hashtbl.mem (fifo_of t lane).newest net

let append f net v older =
  let c = { net; v; live = true; older } in
  Queue.push c f.cells;
  Hashtbl.replace f.newest net c;
  f.live_count <- f.live_count + 1

(* A cell leaves the live set: drained, or cancelled by a merge. Only
   the newest cell of its prefix is ever cancelled; a drained cell is
   the oldest live one, so if it is also the newest it is the only
   one. *)
let retire f c =
  c.live <- false;
  f.live_count <- f.live_count - 1;
  (match Hashtbl.find_opt f.newest c.net with
   | Some n when n == c ->
     (match c.older with
      | Some o when o.live -> Hashtbl.replace f.newest c.net o
      | _ -> Hashtbl.remove f.newest c.net)
   | _ -> ());
  c.older <- None

let compact f =
  let live = Queue.create () in
  Queue.iter (fun c -> if c.live then Queue.push c live) f.cells;
  Queue.clear f.cells;
  Queue.transfer live f.cells;
  f.dead_count <- 0

let cancel f c =
  retire f c;
  f.dead_count <- f.dead_count + 1;
  if f.dead_count > f.live_count + 64 then compact f

let push ?merge t lane ~net v =
  let lane =
    match lane with
    | Bulk -> Bulk
    | Urgent ->
      if t.ordered && Hashtbl.mem t.bulk.newest net then begin
        (* Older work for this prefix is still in the bulk lane: demote
           so we cannot overtake it (§5.1.2 across lanes). *)
        t.demoted <- t.demoted + 1;
        Bulk
      end
      else Urgent
  in
  let f = fifo_of t lane in
  let prev = Hashtbl.find_opt f.newest net in
  (match merge, prev with
   | Some merge, Some c ->
     (match merge c.v v with
      | Merged v' -> c.v <- v'
      | Cancelled -> cancel f c
      | Refused -> append f net v prev)
   | _ -> append f net v prev);
  let len = length t in
  if len > t.peak then t.peak <- len

(* The live values of up to [n] cells from the front of [f], oldest
   first. *)
let take f n =
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt f.cells with
      | None -> List.rev acc
      | Some c when not c.live ->
        f.dead_count <- f.dead_count - 1;
        go n acc
      | Some c ->
        retire f c;
        go (n - 1) (c.v :: acc)
  in
  go n []

let to_list t lane =
  Queue.fold
    (fun acc c -> if c.live then (c.net, c.v) :: acc else acc)
    [] (fifo_of t lane).cells
  |> List.rev

let drain t ~bulk_slice =
  let urgent = take t.urgent max_int in
  let bulk = take t.bulk bulk_slice in
  (urgent, bulk)

let clear_fifo f =
  Queue.clear f.cells;
  Hashtbl.reset f.newest;
  f.live_count <- 0;
  f.dead_count <- 0

let clear t =
  clear_fifo t.urgent;
  clear_fifo t.bulk
