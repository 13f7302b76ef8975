(* Cross-domain mailbox: a Laneq behind a mutex and condition variable.

   All state lives under [mu]. Condition.signal and the [on_wakeup]
   callback run outside the lock: signalling needs no lock, and
   [on_wakeup] may take locks of its own (Eventloop.post takes the
   loop's posted-queue mutex) so it must never run under ours. *)

type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  q : 'a Laneq.t;
  on_wakeup : (unit -> unit) option;
  mutable closed : bool;
  mutable bulk_taken : int; (* bulk entries drained since creation *)
  mutable fence_at : int;
      (* [bulk_taken] once the newest bulk-lane fence has been drained:
         a fence is pending while [bulk_taken < fence_at]. *)
}

let create ?(ordered = true) ?on_wakeup () =
  { mu = Mutex.create ();
    nonempty = Condition.create ();
    q = Laneq.create ~ordered ();
    on_wakeup;
    closed = false;
    bulk_taken = 0; fence_at = 0 }

let enqueue ~fence t lane ~net v =
  Mutex.lock t.mu;
  if t.closed then Mutex.unlock t.mu
  else begin
    let was_empty = Laneq.is_empty t.q in
    let lane = if t.bulk_taken < t.fence_at then Laneq.Bulk else lane in
    let bulk_before = Laneq.bulk_length t.q in
    Laneq.push t.q lane ~net v;
    (* A fence in the urgent lane is never overtaken: later pushes queue
       behind it or in the bulk lane, which drains after it. One that
       ended up in the bulk lane (asked for there, or demoted) holds
       back every urgent push until a drain takes it. *)
    if fence && Laneq.bulk_length t.q > bulk_before then
      t.fence_at <- t.bulk_taken + Laneq.bulk_length t.q;
    Mutex.unlock t.mu;
    Condition.signal t.nonempty;
    if was_empty then Option.iter (fun f -> f ()) t.on_wakeup
  end

let push t lane ~net v = enqueue ~fence:false t lane ~net v
let push_fence t lane v = enqueue ~fence:true t lane ~net:Ipv4net.default v

(* Urgent lane dry first, then a bounded bulk batch: the same consumer
   discipline Laneq documents, applied under one lock acquisition. *)
let take_locked t bulk_slice =
  let acc = ref [] in
  let rec urgent () =
    match Laneq.pop_urgent t.q with
    | Some (_, v) ->
      acc := (Laneq.Urgent, v) :: !acc;
      urgent ()
    | None -> ()
  in
  urgent ();
  let rec bulk n =
    if n > 0 then
      match Laneq.pop_bulk t.q with
      | Some (_, v) ->
        t.bulk_taken <- t.bulk_taken + 1;
        acc := (Laneq.Bulk, v) :: !acc;
        bulk (n - 1)
      | None -> ()
  in
  bulk bulk_slice;
  List.rev !acc

let drain ?(bulk_slice = max_int) t =
  Mutex.lock t.mu;
  let out = take_locked t bulk_slice in
  Mutex.unlock t.mu;
  out

let drain_wait ?timeout_s ?(bulk_slice = max_int) t =
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s
  in
  Mutex.lock t.mu;
  let rec wait () =
    if (not (Laneq.is_empty t.q)) || t.closed then take_locked t bulk_slice
    else
      match deadline with
      | None ->
        Condition.wait t.nonempty t.mu;
        wait ()
      | Some d ->
        if Unix.gettimeofday () >= d then []
        else begin
          (* No timed wait in the stdlib Condition: poll on a short
             period. Only the timeout path pays for this; the common
             worker loop passes no timeout and blocks properly. *)
          Mutex.unlock t.mu;
          Unix.sleepf 0.0002;
          Mutex.lock t.mu;
          wait ()
        end
  in
  let out = wait () in
  Mutex.unlock t.mu;
  out

let length t =
  Mutex.lock t.mu;
  let n = Laneq.length t.q in
  Mutex.unlock t.mu;
  n

let is_empty t = length t = 0

let demoted t =
  Mutex.lock t.mu;
  let n = Laneq.demoted t.q in
  Mutex.unlock t.mu;
  n

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Mutex.unlock t.mu;
  Condition.broadcast t.nonempty

let is_closed t =
  Mutex.lock t.mu;
  let c = t.closed in
  Mutex.unlock t.mu;
  c
