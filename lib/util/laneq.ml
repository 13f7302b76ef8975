(* Two-lane (urgent/bulk) work queue with a per-prefix ordering guard.

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

   [ordered:false] disables the guard — the deliberately broken variant
   the simulation fuzzer must catch (see Simtest). *)

type lane = Urgent | Bulk

let lane_name = function Urgent -> "urgent" | Bulk -> "bulk"

type 'a t = {
  urgent : (Ipv4net.t * 'a) Queue.t;
  bulk : (Ipv4net.t * 'a) Queue.t;
  bulk_pending : (Ipv4net.t, int) Hashtbl.t;
  ordered : bool;
  mutable demoted : int;
  mutable peak : int;
}

let create ?(ordered = true) () =
  { urgent = Queue.create (); bulk = Queue.create ();
    bulk_pending = Hashtbl.create 64; ordered; demoted = 0; peak = 0 }

let urgent_length t = Queue.length t.urgent
let bulk_length t = Queue.length t.bulk
let length t = urgent_length t + bulk_length t
let is_empty t = Queue.is_empty t.urgent && Queue.is_empty t.bulk
let demoted t = t.demoted
let peak_length t = t.peak

let bulk_incr t net =
  let n = Option.value (Hashtbl.find_opt t.bulk_pending net) ~default:0 in
  Hashtbl.replace t.bulk_pending net (n + 1)

let bulk_decr t net =
  match Hashtbl.find_opt t.bulk_pending net with
  | Some n when n <= 1 -> Hashtbl.remove t.bulk_pending net
  | Some n -> Hashtbl.replace t.bulk_pending net (n - 1)
  | None -> ()

let push t lane ~net v =
  let lane =
    match lane with
    | Bulk -> Bulk
    | Urgent ->
      if t.ordered && Hashtbl.mem t.bulk_pending net then begin
        (* Older work for this prefix is still in the bulk lane: demote
           so we cannot overtake it (§5.1.2 across lanes). *)
        t.demoted <- t.demoted + 1;
        Bulk
      end
      else Urgent
  in
  (match lane with
   | Urgent -> Queue.push (net, v) t.urgent
   | Bulk ->
     bulk_incr t net;
     Queue.push (net, v) t.bulk);
  let len = length t in
  if len > t.peak then t.peak <- len

let drain t ~bulk_slice =
  let urgent = Queue.fold (fun acc (_, v) -> v :: acc) [] t.urgent in
  Queue.clear t.urgent;
  let rec take n acc =
    if n = 0 then acc
    else
      match Queue.take_opt t.bulk with
      | None -> acc
      | Some (net, v) ->
        bulk_decr t net;
        take (n - 1) (v :: acc)
  in
  let bulk = take bulk_slice [] in
  (List.rev urgent, List.rev bulk)

let clear t =
  Queue.clear t.urgent;
  Queue.clear t.bulk;
  Hashtbl.reset t.bulk_pending
