(* The Fanout Queue (paper §5.1.1, Figure 5).

   Duplicates the Decision Process's winner stream to each peer's
   output branch and to the RIB branch. "Since the outgoing filter
   banks modify routes in different ways for different peers, the best
   place to queue changes is in the fanout stage, after the routes have
   been chosen but before they have been specialized. The Fanout Queue
   module then maintains a single route change queue, with n readers
   (one for each peer) referencing it."

   Each reader drains a bounded batch per event-loop pass (slow peers
   simply leave their cursor behind; memory is shared in the one
   queue); fully-consumed entries are compacted away. Per-reader
   advertisement rules: never echo to the originating peer, and no
   IBGP-to-IBGP re-advertisement (we are not a route reflector). A
   replace is one entry; the rules judge its two routes apart, so a
   reader gets a replace, a delete, an add or nothing.

   Two lanes: changes arriving in the ambient bulk lane (a table load
   being drained from an inbound staging queue) land in a bulk log;
   urgent changes (a flap during that load) land in an urgent log that
   every reader drains first, so a flap overtakes a 146k-entry load
   backlog here instead of queueing behind it. Per-prefix FIFO order is
   preserved across lanes (§5.1.2): an urgent change for a prefix that
   still has entries in the bulk log is demoted to the bulk lane, so it
   cannot overtake older work for its own prefix even for the slowest
   reader. [ordered:false] disables that guard — the deliberately
   broken variant the simulation fuzzer must catch. *)

(* Entries remember the trace context that was ambient when they were
   queued: the drain runs in a later event-loop pass, so the context
   must travel with the entry for spans emitted downstream (output
   branches, the RIB branch) to stay linked to the originating update.
   The lane does not need storing: it is which log the entry sits in,
   and the drain reinstates it as the ambient lane for downstream
   stages. *)
type entry = {
  op : [ `Add | `Delete | `Replace of Bgp_types.route (* the old route *) ];
  route : Bgp_types.route;
  trace : Telemetry.Trace.ctx option;
}

(* The advertisement rules, for the fanout's readers and for a
   re-established peer's winner dump alike: a locally originated route
   goes everywhere; nothing echoes to the peer it came from; and no
   IBGP-learned route goes to an IBGP peer (we are not a route
   reflector). [peer_info_of] names the peer a route came from. *)
let should_send ~peer_info_of (to_info : Bgp_types.peer_info)
    (route : Bgp_types.route) =
  let from_id = route.Bgp_types.peer_id in
  if from_id = 0 then true
  else if from_id = to_info.peer_id then false
  else
    match peer_info_of from_id with
    | Some (from : Bgp_types.peer_info)
      when from.kind = Bgp_types.Ibgp && to_info.kind = Bgp_types.Ibgp ->
      false
    | _ -> true

(* One growable append-only log (ring-less; compaction blits). *)
type log = {
  mutable entries : entry array;
  mutable base : int; (* absolute index of entries.(0) *)
  mutable count : int; (* live entries *)
}

let make_log () = { entries = [||]; base = 0; count = 0 }

let log_append l e =
  if l.count >= Array.length l.entries then begin
    let ncap = max 64 (2 * Array.length l.entries) in
    let na = Array.make ncap e in
    Array.blit l.entries 0 na 0 l.count;
    l.entries <- na
  end;
  l.entries.(l.count) <- e;
  l.count <- l.count + 1

type reader = {
  r_peer : Bgp_types.peer_info;
  r_branch : Bgp_table.table;
  mutable u_cursor : int; (* absolute index into the urgent log *)
  mutable b_cursor : int; (* absolute index into the bulk log *)
}

class fanout_table ~name ?(batch = 500) ?(ordered = true)
    ~(peer_info_of : int -> Bgp_types.peer_info option) (loop : Eventloop.t) =
  object (self)
    inherit Bgp_table.base name
    val h_add = Telemetry.histogram ("bgp." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("bgp." ^ name ^ ".delete_us")
    val g_urgent = Telemetry.gauge ("bgp." ^ name ^ ".lane.urgent")
    val g_bulk = Telemetry.gauge ("bgp." ^ name ^ ".lane.bulk")
    val urgent = make_log ()
    val bulk = make_log ()
    (* Prefixes with entries still in the bulk log (until compaction
       proves every reader consumed them), counted; the §5.1.2 guard. *)
    val bulk_pending : (Ipv4net.t, int) Hashtbl.t = Hashtbl.create 256
    val readers : (int, reader) Hashtbl.t = Hashtbl.create 8
    val mutable drain_scheduled = false
    val mutable peak_queue = 0
    val mutable demoted = 0

    method reader_count = Hashtbl.length readers
    method queue_length = urgent.count + bulk.count
    method urgent_length = urgent.count
    method bulk_length = bulk.count
    method peak_queue_length = peak_queue
    method demoted = demoted

    method private set_lane_gauges =
      Telemetry.set_gauge g_urgent (float_of_int urgent.count);
      Telemetry.set_gauge g_bulk (float_of_int bulk.count)

    method private append lane e =
      let net = e.route.Bgp_types.net in
      let lane =
        match (lane : Laneq.lane) with
        | Laneq.Urgent when ordered && Hashtbl.mem bulk_pending net ->
          (* Older work for this prefix is still in the bulk log:
             demote so no reader can see this change overtake it. *)
          demoted <- demoted + 1;
          Laneq.Bulk
        | lane -> lane
      in
      (match lane with
       | Laneq.Urgent -> log_append urgent e
       | Laneq.Bulk ->
         let n = Option.value (Hashtbl.find_opt bulk_pending net) ~default:0 in
         Hashtbl.replace bulk_pending net (n + 1);
         log_append bulk e);
      let len = self#queue_length in
      if len > peak_queue then peak_queue <- len;
      self#set_lane_gauges;
      self#schedule_drain

    method private schedule_drain =
      if not drain_scheduled then begin
        drain_scheduled <- true;
        Eventloop.defer loop (fun () ->
            drain_scheduled <- false;
            self#drain)
      end

    method private should_send (r : reader) route =
      should_send ~peer_info_of r.r_peer route

    method private deliver (r : reader) (e : entry) lane =
      let send f =
        Bgp_types.with_lane lane (fun () ->
            Telemetry.Trace.with_ctx e.trace f)
      in
      let b = r.r_branch in
      match e.op with
      | `Add ->
        if self#should_send r e.route then
          send (fun () -> b#add_route e.route)
      | `Delete ->
        if self#should_send r e.route then
          send (fun () -> b#delete_route e.route)
      | `Replace old ->
        (match self#should_send r old, self#should_send r e.route with
         | true, true -> send (fun () -> b#replace_route old e.route)
         | true, false -> send (fun () -> b#delete_route old)
         | false, true -> send (fun () -> b#add_route e.route)
         | false, false -> ())

    method private drain =
      let u_tail = urgent.base + urgent.count in
      let b_tail = bulk.base + bulk.count in
      let more = ref false in
      Hashtbl.iter
        (fun _ r ->
           (* Urgent lane first, and always dry before bulk: the lane
              guard's per-prefix ordering argument depends on it.
              Urgent volume is flap-sized, so no batch bound here. *)
           while r.u_cursor < u_tail do
             let e = urgent.entries.(r.u_cursor - urgent.base) in
             r.u_cursor <- r.u_cursor + 1;
             self#deliver r e Laneq.Urgent
           done;
           let budget = ref batch in
           while r.b_cursor < b_tail && !budget > 0 do
             let e = bulk.entries.(r.b_cursor - bulk.base) in
             r.b_cursor <- r.b_cursor + 1;
             decr budget;
             self#deliver r e Laneq.Bulk
           done;
           if r.b_cursor < b_tail then more := true)
        readers;
      self#compact;
      self#set_lane_gauges;
      if !more then self#schedule_drain

    method private compact =
      let u_min, b_min =
        Hashtbl.fold
          (fun _ r (u, b) -> (min u r.u_cursor, min b r.b_cursor))
          readers
          (urgent.base + urgent.count, bulk.base + bulk.count)
      in
      let drop_log l min_cursor on_drop =
        let drop = min_cursor - l.base in
        if drop > 0 then begin
          (match on_drop with
           | None -> ()
           | Some f ->
             for i = 0 to drop - 1 do f l.entries.(i) done);
          let remaining = l.count - drop in
          if remaining > 0 then Array.blit l.entries drop l.entries 0 remaining;
          l.count <- remaining;
          l.base <- min_cursor
        end
      in
      drop_log urgent u_min None;
      drop_log bulk b_min
        (Some
           (fun e ->
              let net = e.route.Bgp_types.net in
              match Hashtbl.find_opt bulk_pending net with
              | Some n when n <= 1 -> Hashtbl.remove bulk_pending net
              | Some n -> Hashtbl.replace bulk_pending net (n - 1)
              | None -> ()))

    method add_route route =
      Telemetry.time h_add (fun () ->
          self#append (Bgp_types.current_lane ())
            { op = `Add; route; trace = Telemetry.Trace.current () })

    method delete_route route =
      Telemetry.time h_del (fun () ->
          self#append (Bgp_types.current_lane ())
            { op = `Delete; route; trace = Telemetry.Trace.current () })

    method! replace_route old route =
      Telemetry.time h_add (fun () ->
          self#append (Bgp_types.current_lane ())
            { op = `Replace old; route; trace = Telemetry.Trace.current () })

    (* Pulls pass through to the decision stage upstream. The fanout
       has no store of its own. *)
    val mutable parent_tbl : Bgp_table.table option = None
    method set_parent (p : Bgp_table.table) = parent_tbl <- Some p

    method lookup_route net =
      match parent_tbl with
      | Some p -> p#lookup_route net
      | None -> None

    (* New readers start at both queue tails: they see only future
       updates. The owner dumps the existing table to them separately
       (Bgp_process runs a background winner-table dump on session
       establishment). *)
    method add_reader ~(info : Bgp_types.peer_info) (branch : Bgp_table.table)
      =
      Hashtbl.replace readers info.peer_id
        { r_peer = info; r_branch = branch;
          u_cursor = urgent.base + urgent.count;
          b_cursor = bulk.base + bulk.count }

    method remove_reader peer_id =
      Hashtbl.remove readers peer_id;
      self#compact;
      self#set_lane_gauges

    method has_reader peer_id = Hashtbl.mem readers peer_id
  end
