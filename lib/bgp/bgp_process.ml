let src = Logs.Src.create "xorp.bgp" ~doc:"BGP process"

module Log = (val Logs.src_log src : Logs.LOG)

let pp_entering = "bgp_in"
let pp_queued_rib = "bgp_queued_rib"
let pp_sent_rib = "bgp_sent_rib"

type peer_config = {
  peer_addr : Ipv4.t;
  local_addr : Ipv4.t;
  peer_as : int;
  hold_time : float;
  connect_retry : float;
  passive : bool option;
  import_policies : Policy.program list;
  export_policies : Policy.program list;
  damping : Bgp_damping.params option;
  checking_cache : bool;
  deletion_slice : int;
  aggregates : Bgp_aggregation.aggregate_config list;
}

let default_peer_config ~peer_addr ~local_addr ~peer_as =
  { peer_addr; local_addr; peer_as; hold_time = 90.0; connect_retry = 5.0;
    passive = None; import_policies = []; export_policies = [];
    damping = None; checking_cache = false; deletion_slice = 100;
    aggregates = [] }

(* One staged prefix from an inbound UPDATE, waiting in the per-peer
   staging queue for the background drain task (§4): the session
   handler validates the UPDATE and enqueues, and the route only
   enters rib-in → decision → fanout when the drain task gets a
   slice. *)
type inbound_op = {
  i_net : Ipv4net.t;
  i_action : [ `Add of Bgp_types.attrs | `Withdraw ];
  i_trace : Telemetry.Trace.ctx option;
}

type peer = {
  cfg : peer_config;
  info : Bgp_types.peer_info;
  fsm : Peer_fsm.t;
  ribin : Bgp_ribin.rib_in;
  import_filter : Bgp_filter.filter_table;
  damping_tbl : Bgp_damping.damping_table option;
  nexthop_tbl : Bgp_nexthop.nexthop_table;
  export_branch : Bgp_table.table; (* top of the output branch *)
  out_cache : Bgp_cache.cache_table option;
  ribout : Bgp_ribout.rib_out;
  inbound : inbound_op Queue.t;
  mutable inbound_task : Eventloop.task option;
  mutable retry_timer : Eventloop.timer option;
  mutable endpoint : Netsim.Stream.endpoint option;
  mutable dump_task : Eventloop.task option;
  mutable removed : bool;
  (* Has this peering ever reached Established? Re-establishments must
     re-dump the winners table ([redump_on_reestablish]); the injected
     mesh-partition-heal bug skips exactly that. *)
  mutable was_established : bool;
}

type t = {
  router : Xrl_router.t;
  loop : Eventloop.t;
  netsim : Netsim.t;
  clock : unit -> float; (* the loop's clock, for spans and points *)
  pt_entering : Telemetry.Profile.point;
  pt_queued_rib : Telemetry.Profile.point;
  pt_sent_rib : Telemetry.Profile.point;
  local_as : int;
  bgp_id : Ipv4.t;
  bgp_port : int;
  send_to_rib : bool;
  nexthop_mode : [ `Rib | `Assume_resolvable ];
  (* Inbound slicing and lane classification (§4 + §5.1): each slice
     of a peer's drain task moves [1] staged prefix, [inbound_slice]
     slices per event-loop turn; an op drained while its peer's
     staging backlog is at least [urgent_threshold] is classified
     bulk, otherwise urgent. *)
  inbound_slice : int;
  urgent_threshold : int;
  lane_ordered : bool;
  mutable inbound_backlog : int; (* staged ops across all peers *)
  g_inbound : Telemetry.gauge;
  peers : (int, peer) Hashtbl.t; (* keyed by peer address *)
  (* peer_id -> kind, kept even after peer removal so in-flight RIB
     withdrawals are attributed to the right origin protocol *)
  peer_kinds : (int, Bgp_types.peer_kind) Hashtbl.t;
  mutable next_peer_id : int;
  decision : Bgp_decision.decision_table;
  fanout : Bgp_fanout.fanout_table;
  local_ribin : Bgp_ribin.rib_in;
  listeners : (int, Netsim.Stream.listener) Hashtbl.t; (* by local addr *)
  rib : Rib_client.t;
  (* One entry per prefix, lane and RIB origin table (ebgp or ibgp):
     see [rib_q_merge]. *)
  rib_q :
    (Laneq.change * Bgp_types.route * Telemetry.Trace.ctx option) Laneq.t;
  mutable rib_flush_scheduled : bool;
  redump_on_reestablish : bool;
  mutable started : bool;
}

let instance_name t = Xrl_router.instance_name t.router
let xrl_router t = t.router

(* --- RIB branch ------------------------------------------------------ *)

let rib_protocol t (route : Bgp_types.route) =
  match Hashtbl.find_opt t.peer_kinds route.Bgp_types.peer_id with
  | Some Bgp_types.Ibgp -> "ibgp"
  | _ -> "ebgp"

let rib_metric (route : Bgp_types.route) =
  Option.value route.Bgp_types.attrs.med ~default:0

(* A change folds into the one pending for its prefix and lane when
   both are for the same RIB origin table. The RIB holds a prefix in
   one of the two at a time, so the queue holds at most one entry per
   prefix, lane and table. *)
let rib_q_merge t =
  Laneq.merge_changes ~compatible:(fun a b ->
      String.equal (rib_protocol t a) (rib_protocol t b))

let is_add : Laneq.change -> bool = function
  | Add | Replace -> true
  | Delete -> false

(* A replacement records as an add at the §8.2 points. *)
let verb_of change : Telemetry.Profile.verb =
  if is_add change then Add else Delete

(* Per-route XRL; also the path a single-entry run takes, so the
   unbatched pipeline (and its profile-point sequence) is exactly what
   it was before bulk transfer — Figures 10-12 flap one route at a
   time and still measure this path. *)
let send_rib_one t (change, (route : Bgp_types.route), trace) =
  Telemetry.Trace.with_ctx trace @@ fun () ->
  Telemetry.Trace.span_sync ~name:"bgp.rib_send" ~clock:t.clock
  @@ fun () ->
  let net = route.Bgp_types.net in
  Telemetry.Profile.record t.pt_sent_rib ~clock:t.clock (verb_of change) net;
  let protocol = rib_protocol t route in
  if is_add change then
    Rib_client.add_route t.rib ~protocol ~net
      ~nexthop:route.Bgp_types.attrs.nexthop ~metric:(rib_metric route)
  else Rib_client.delete_route t.rib ~protocol ~net

(* A run of queued updates with the same operation and protocol leaves
   as one rib/add_routes4 or rib/delete_routes4 XRL carrying a
   Route_pack-packed list — the same bulk transfer the RIB already
   uses towards the FEA (PR 2), now applied to the BGP->RIB leg, which
   used to dominate full-table load time. Profile points stay per
   route. *)
let send_rib_run t entries =
  match entries with
  | [] -> ()
  | [ entry ] -> send_rib_one t entry
  | (change0, (route0 : Bgp_types.route), first_trace) :: _ ->
    let n = List.length entries in
    let add = is_add change0 in
    List.iter
      (fun (change, (route : Bgp_types.route), _) ->
         Telemetry.Profile.record t.pt_sent_rib ~clock:t.clock
           (verb_of change) route.Bgp_types.net)
      entries;
    Telemetry.Trace.with_ctx first_trace @@ fun () ->
    Telemetry.Trace.span_sync ~name:"bgp.rib_send" ~note:(Routes n)
      ~clock:t.clock
    @@ fun () ->
    let xrl =
      if add then
        let adds =
          List.map
            (fun (_, (r : Bgp_types.route), _) ->
               { Route_pack.net = r.Bgp_types.net;
                 nexthop = r.Bgp_types.attrs.nexthop;
                 ifname = ""; protocol = rib_protocol t r;
                 metric = rib_metric r })
            entries
        in
        Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_routes4"
          [ Xrl_atom.binary "routes" (Route_pack.pack_adds adds) ]
      else
        Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"delete_routes4"
          [ Xrl_atom.txt "protocol" (rib_protocol t route0);
            Xrl_atom.binary "routes"
              (Route_pack.pack_deletes
                 (List.map (fun (_, (r : Bgp_types.route), _) -> r.Bgp_types.net)
                    entries)) ]
    in
    Xrl_router.send ~retry:Xrl_router.default_retry t.router xrl (fun err _ ->
        if not (Xrl_error.is_ok err) then
          Log.warn (fun m ->
              m "bulk RIB %s (%d routes) failed: %s"
                (if add then "add" else "delete") n
                (Xrl_error.to_string err)))

(* Bulk-lane routes forwarded to the RIB per deferred flush: bounds how
   long one loop turn spends packing and how large a synchronous run
   the RIB's bulk handler processes, so an urgent flush in the next
   turn is never far away. *)
let rib_bulk_slice = 128

(* Nothing is held for a dead RIB: a reborn one gets the full replay. *)
let rec schedule_rib_flush t =
  if not t.rib_flush_scheduled then begin
    t.rib_flush_scheduled <- true;
    Eventloop.defer t.loop (fun () ->
        t.rib_flush_scheduled <- false;
        if not (Xrl_router.peer_live t.router "rib") then Laneq.clear t.rib_q
        else begin
          let urgent, bulk = Laneq.drain t.rib_q ~bulk_slice:rib_bulk_slice in
          (* Urgent lane first, as per-route XRLs — the method is how
             the lane crosses the XRL boundary: the RIB classifies
             per-route rib/add_route arrivals as urgent and bulk-packed
             rib/add_routes4 arrivals as bulk. *)
          List.iter (send_rib_one t) urgent;
          (* Group consecutive same-op, same-protocol bulk entries into
             runs, preserving overall order: an add/delete alternation
             for the same prefix must reach the RIB in sequence. A
             replace travels as an add. Leftovers re-defer so timers
             and fresh I/O get the loop in between. *)
          let run =
            List.fold_left
              (fun run ((change, route, _) as entry) ->
                 match run with
                 | (prev, prev_route, _) :: _
                   when is_add prev = is_add change
                        && rib_protocol t prev_route = rib_protocol t route ->
                   entry :: run
                 | _ ->
                   send_rib_run t (List.rev run);
                   [ entry ])
              [] bulk
          in
          send_rib_run t (List.rev run);
          if not (Laneq.is_empty t.rib_q) then schedule_rib_flush t
        end)
  end

(* The fanout reader feeding the RIB. Locally originated routes
   (peer 0) are skipped: the RIB learned them by other means. The RIB
   stores a route's origin table, nexthop and metric and nothing else
   of it (§5.2), so a replace that leaves all three as they were — an
   AS path change, say — ends here, at the last §8.2 point it passed
   ([bgp_in]); nothing queues for the RIB. Any other replace within
   one origin table queues one entry, which the RIB applies as a
   replacement; a route that moves between the ebgp and ibgp tables
   stays a delete from one and an add to the other. *)
let make_rib_branch t : Bgp_table.table =
  let on change (route : Bgp_types.route) =
    if route.Bgp_types.peer_id <> 0 && t.send_to_rib
       && Xrl_router.peer_live t.router "rib" then begin
      Telemetry.Profile.record t.pt_queued_rib ~clock:t.clock
        (verb_of change) route.net;
      Laneq.push ~merge:(rib_q_merge t) t.rib_q
        (Bgp_types.current_lane ())
        ~net:route.Bgp_types.net
        (change, route, Telemetry.Trace.current ());
      schedule_rib_flush t
    end
  in
  (object
    inherit
      Bgp_table.sink ~name:"to-rib"
        ~parent:(t.decision :> Bgp_table.table)
        ~on_add:(on Laneq.Add) ~on_delete:(on Laneq.Delete)

    method! replace_route old r =
      if old.Bgp_types.peer_id <> 0 && r.Bgp_types.peer_id <> 0
         && String.equal (rib_protocol t old) (rib_protocol t r)
      then begin
        if not (Ipv4.equal old.attrs.nexthop r.attrs.nexthop
                && rib_metric old = rib_metric r)
        then on Laneq.Replace r
      end
      else begin
        on Laneq.Delete old;
        on Laneq.Add r
      end
  end
   :> Bgp_table.table)

(* --- nexthop resolution ---------------------------------------------- *)

let make_resolver t : Bgp_nexthop.resolve_fn =
  match t.nexthop_mode with
  | `Assume_resolvable ->
    fun nh cb ->
      cb { Bgp_nexthop.resolvable = true; metric = 0; valid = Ipv4net.host nh }
  | `Rib ->
    fun nh cb ->
      let xrl =
        Xrl.make ~target:"rib" ~interface:"rib"
          ~method_name:"register_interest"
          [ Xrl_atom.txt "client" (instance_name t); Xrl_atom.ipv4 "addr" nh ]
      in
      Xrl_router.send ~retry:Xrl_router.default_retry t.router xrl
        (fun err args ->
          if Xrl_error.is_ok err then begin
            let resolvable = Xrl_atom.get_bool args "resolves" in
            let valid = Xrl_atom.get_ipv4net args "valid" in
            let metric =
              if resolvable then Xrl_atom.get_u32 args "metric" else 0
            in
            cb { Bgp_nexthop.resolvable; metric; valid }
          end
          else begin
            Log.warn (fun m ->
                m "nexthop query for %s failed: %s" (Ipv4.to_string nh)
                  (Xrl_error.to_string err));
            cb
              { Bgp_nexthop.resolvable = false; metric = 0;
                valid = Ipv4net.host nh }
          end)

(* --- RIB rebirth resync (the mirror of Rib.watch_fea_lifecycle) ------- *)

(* [Rib_client]'s replay. A reborn RIB starts from empty origin tables:
   replace whatever was queued since its birth with a full dump of the
   post-decision winners. The dump rides the bulk lane: fresh urgent
   changes for other prefixes overtake it, while the Laneq guard keeps
   a live update to a replayed prefix behind its replay entry
   (§5.1.2). Cached nexthop resolutions are invalidated wholesale so
   every nexthop is re-queried — which also re-registers the interest
   the new RegisterTable needs to push future invalidations. *)
let replay_rib t =
  Laneq.clear t.rib_q;
  let n =
    if not t.send_to_rib then 0
    else
      t.decision#fold_winners
        (fun (route : Bgp_types.route) n ->
           if route.Bgp_types.peer_id <> 0 then begin
             Laneq.push t.rib_q Laneq.Bulk ~net:route.Bgp_types.net
               (Laneq.Add, route, None);
             n + 1
           end
           else n)
        0
  in
  if t.nexthop_mode = `Rib then
    Hashtbl.iter
      (fun _ peer -> peer.nexthop_tbl#invalidate Ipv4net.default)
      t.peers;
  if not (Laneq.is_empty t.rib_q) then schedule_rib_flush t;
  n

(* Nothing is held for a dead RIB: a reborn one gets the full replay. *)
let rib_died t =
  Log.warn (fun m ->
      m "RIB died; dropping route updates until an instance returns");
  Laneq.clear t.rib_q

(* --- session plumbing ------------------------------------------------- *)

let peer_key addr = Ipv4.to_int addr
let find_peer t addr = Hashtbl.find_opt t.peers (peer_key addr)

(* Replicates the fanout's advertisement rules for table dumps. *)
let dump_should_send (to_info : Bgp_types.peer_info)
    (from_info : Bgp_types.peer_info option) (route : Bgp_types.route) =
  let from_id = route.Bgp_types.peer_id in
  if from_id = 0 then true
  else if from_id = to_info.peer_id then false
  else
    match from_info with
    | Some from when from.kind = Bgp_types.Ibgp && to_info.kind = Bgp_types.Ibgp
      -> false
    | _ -> true

let start_winner_dump t peer =
  (match peer.dump_task with
   | Some task -> Eventloop.remove_task task
   | None -> ());
  let it = t.decision#winners_iter in
  let one () =
    match Ptree.Safe_iter.next it with
    | None ->
      peer.dump_task <- None;
      `Done
    | Some (_, route) ->
      if
        dump_should_send peer.info
          (t.decision#peer_info route.Bgp_types.peer_id)
          route
      then
        (* A table dump is bulk by definition: fresh updates flowing
           through the fanout overtake it in the peer's RibOut. *)
        Bgp_types.with_lane Laneq.Bulk (fun () ->
            peer.export_branch#add_route route);
      `Continue
  in
  peer.dump_task <- Some (Eventloop.add_task t.loop ~weight:100 one)

(* --- inbound staging (§4 background-task slicing) --------------------- *)

let inbound_backlog t = t.inbound_backlog

let adjust_backlog t delta =
  t.inbound_backlog <- t.inbound_backlog + delta;
  Telemetry.set_gauge t.g_inbound (float_of_int t.inbound_backlog)

(* Hand one UPDATE prefix to the peer's Adj-RIB-In: the one place a
   received prefix becomes a route, for the synchronous fast path and
   the staged drain alike. *)
let apply_inbound peer action net =
  match action with
  | `Withdraw ->
    peer.ribin#delete_route
      { Bgp_types.net; attrs = Bgp_types.default_attrs ~nexthop:Ipv4.zero;
        peer_id = peer.info.peer_id; igp_metric = None }
  | `Add attrs ->
    peer.ribin#add_route
      { Bgp_types.net; attrs; peer_id = peer.info.peer_id; igp_metric = None }

(* The per-peer drain task: one staged prefix per slice,
   [t.inbound_slice] slices per event-loop turn, so a bulk table load
   chips away between timers and fresh I/O instead of monopolising the
   loop (the same §4 machinery as [start_winner_dump]). Lane
   classification happens here, at drain time: an op drained while the
   peer's staging backlog is deep is bulk; an op drained from a nearly
   empty queue (a flap, or the tail of a load) is urgent. *)
let ensure_inbound_task t peer =
  match peer.inbound_task with
  | Some _ -> ()
  | None ->
    let one () =
      match Queue.take_opt peer.inbound with
      | None ->
        peer.inbound_task <- None;
        `Done
      | Some op ->
        adjust_backlog t (-1);
        let lane : Laneq.lane =
          if Queue.length peer.inbound >= t.urgent_threshold then Laneq.Bulk
          else Laneq.Urgent
        in
        Bgp_types.with_lane lane (fun () ->
            Telemetry.Trace.with_ctx op.i_trace (fun () ->
                apply_inbound peer op.i_action op.i_net));
        `Continue
    in
    peer.inbound_task <-
      Some (Eventloop.add_task t.loop ~weight:t.inbound_slice one)

(* Session gone: staged-but-undrained ops die with it (the Adj-RIB-In
   they would have entered is being flushed anyway). *)
let clear_inbound t peer =
  adjust_backlog t (-Queue.length peer.inbound);
  Queue.clear peer.inbound;
  match peer.inbound_task with
  | Some task ->
    Eventloop.remove_task task;
    peer.inbound_task <- None
  | None -> ()

let handle_update t peer (msg : Bgp_packet.msg) =
  match msg with
  | Bgp_packet.Update { withdrawn; attrs; nlri } ->
    (* The whole UPDATE is one root span; per-prefix work downstream
       (staged ops, fanout entries, rib_q entries, the RIB and FEA
       handlers) links back to it through the captured contexts. *)
    Telemetry.Trace.span_sync ~name:"bgp.update"
      ~note:
        (Update
           (peer.cfg.peer_addr, List.length nlri, List.length withdrawn))
      ~clock:t.clock
    @@ fun () ->
    (* One record per prefix, so per-route latency can be traced
       through all eight profile points of §8.2. The entering point is
       recorded at receive time — staging delay is part of what the
       later points measure. *)
    List.iter
      (fun net ->
         Telemetry.Profile.record t.pt_entering ~clock:t.clock Delete net)
      withdrawn;
    List.iter
      (fun net -> Telemetry.Profile.record t.pt_entering ~clock:t.clock Add net)
      nlri;
    (* Validation is per UPDATE, not per prefix, so it happens at
       receive time: AS-loop rejection and the LOCAL_PREF session rule
       (only meaningful on IBGP). *)
    let nlri_attrs =
      match attrs with
      | Some a when nlri <> [] ->
        if Aspath.contains a.Bgp_types.aspath t.local_as then begin
          (* AS loop: our own AS already in the path. *)
          Log.debug (fun m ->
              m "loop detected from %s, ignoring %d prefixes"
                (Ipv4.to_string peer.cfg.peer_addr)
                (List.length nlri));
          None
        end
        else
          Some
            (match peer.info.kind with
             | Bgp_types.Ebgp -> { a with Bgp_types.localpref = None }
             | Bgp_types.Ibgp -> a)
      | _ -> None
    in
    let n_ops =
      List.length withdrawn
      + (match nlri_attrs with Some _ -> List.length nlri | None -> 0)
    in
    if Queue.is_empty peer.inbound && n_ops < t.urgent_threshold then
      (* Fast path: nothing staged for this peer and the UPDATE is
         flap-sized. Process synchronously in the urgent lane — the
         idle-path pipeline (and its profile-point sequence) is exactly
         what it was before inbound slicing, and a flap arriving during
         another peer's bulk load enters the urgent lane right here. *)
      Bgp_types.with_lane Laneq.Urgent (fun () ->
          List.iter (apply_inbound peer `Withdraw) withdrawn;
          match nlri_attrs with
          | Some a -> List.iter (apply_inbound peer (`Add a)) nlri
          | None -> ())
    else begin
      (* Bulk path: stage every prefix (withdrawals first, as they
         came) and let the background task drain them a slice at a
         time. Per-peer FIFO keeps the §5.1.2 ordering within the
         staging queue itself. *)
      let stage action net =
        Queue.push
          { i_net = net; i_action = action;
            i_trace = Telemetry.Trace.current () }
          peer.inbound
      in
      List.iter (stage `Withdraw) withdrawn;
      (match nlri_attrs with
       | Some a -> List.iter (stage (`Add a)) nlri
       | None -> ());
      adjust_backlog t n_ops;
      ensure_inbound_task t peer
    end
  | _ -> ()

let rec schedule_redial t peer =
  (match peer.retry_timer with
   | Some timer -> Eventloop.cancel timer
   | None -> ());
  if not peer.removed then
    peer.retry_timer <-
      Some (Eventloop.after t.loop peer.cfg.connect_retry (fun () -> dial t peer))

and dial t peer =
  if (not peer.removed) && Peer_fsm.state peer.fsm = Peer_fsm.Idle then begin
    Peer_fsm.start_active peer.fsm;
    Netsim.Stream.connect t.netsim ~src:peer.cfg.local_addr
      ~dst:peer.cfg.peer_addr ~port:t.bgp_port (fun ep ->
          match ep with
          | Some ep -> attach_endpoint t peer ep
          | None ->
            Peer_fsm.transport_failed peer.fsm;
            schedule_redial t peer)
  end

and attach_endpoint _t peer ep =
  peer.endpoint <- Some ep;
  Netsim.Stream.on_receive ep (fun data -> Peer_fsm.recv peer.fsm data);
  Netsim.Stream.on_close ep (fun () -> Peer_fsm.transport_closed peer.fsm);
  Peer_fsm.transport_up peer.fsm
    { Peer_fsm.tr_send = (fun data -> Netsim.Stream.send ep data);
      tr_close = (fun () -> Netsim.Stream.close ep) }

let is_dialer peer =
  match peer.cfg.passive with
  | Some passive -> not passive
  | None -> Ipv4.compare peer.cfg.local_addr peer.cfg.peer_addr < 0

let on_peer_established t peer () =
  Log.info (fun m ->
      m "session with %s established" (Ipv4.to_string peer.cfg.peer_addr));
  peer.ribout#session_reset;
  t.fanout#add_reader ~info:peer.info peer.export_branch;
  let first = not peer.was_established in
  peer.was_established <- true;
  (* A session that comes back after a cut must be re-sent the whole
     winners table: the peer dropped everything we had advertised when
     the session went down. [redump_on_reestablish:false] is the
     injected mesh-partition-heal bug — only deltas after the heal
     flow, so routes that predate the cut never reach the peer again. *)
  if first || t.redump_on_reestablish then start_winner_dump t peer

let on_peer_down t peer reason =
  Log.info (fun m ->
      m "session with %s down: %s" (Ipv4.to_string peer.cfg.peer_addr) reason);
  t.fanout#remove_reader peer.info.peer_id;
  (match peer.dump_task with
   | Some task ->
     Eventloop.remove_task task;
     peer.dump_task <- None
   | None -> ());
  clear_inbound t peer;
  peer.endpoint <- None;
  (* Hand the whole table to a background deletion stage (§5.1.2). *)
  peer.ribin#peering_went_down ~slice:peer.cfg.deletion_slice ();
  if is_dialer peer then schedule_redial t peer
  else if not peer.removed then Peer_fsm.start_passive peer.fsm

(* --- peer construction ------------------------------------------------ *)

let build_peer t (cfg : peer_config) =
  t.next_peer_id <- t.next_peer_id + 1;
  let kind =
    if cfg.peer_as = t.local_as then Bgp_types.Ibgp else Bgp_types.Ebgp
  in
  let info =
    { Bgp_types.peer_id = t.next_peer_id; peer_addr = cfg.peer_addr;
      peer_as = cfg.peer_as; kind;
      (* Until the OPEN is seen we use the peer address as its BGP id;
         good enough for deterministic tie-breaking in simulation. *)
      peer_bgp_id = cfg.peer_addr }
  in
  let pname = Printf.sprintf "peer[%s]" (Ipv4.to_string cfg.peer_addr) in
  (* Input branch. *)
  let ribin =
    new Bgp_ribin.rib_in ~name:(pname ^ ":in") ~peer_id:info.peer_id t.loop
  in
  let import_filter =
    new Bgp_filter.filter_table
      ~name:(pname ^ ":import")
      ~parent:(ribin :> Bgp_table.table)
      ~local_as:t.local_as ~peer_as:cfg.peer_as
      ~programs:cfg.import_policies ()
  in
  Bgp_table.plumb ribin import_filter;
  let damping_tbl =
    match cfg.damping with
    | Some params ->
      let d =
        new Bgp_damping.damping_table
          ~name:(pname ^ ":damping") ~params
          ~parent:(import_filter :> Bgp_table.table)
          t.loop
      in
      Bgp_table.plumb import_filter d;
      Some d
    | None -> None
  in
  let nexthop_tbl =
    new Bgp_nexthop.nexthop_table
      ~name:(pname ^ ":nexthop") ~resolve:(make_resolver t) ()
  in
  (match damping_tbl with
   | Some d -> Bgp_table.plumb d nexthop_tbl
   | None -> Bgp_table.plumb import_filter nexthop_tbl);
  Bgp_table.plumb nexthop_tbl t.decision;
  t.decision#add_parent ~info (nexthop_tbl :> Bgp_table.table);
  Hashtbl.replace t.peer_kinds info.peer_id info.kind;
  (* Output branch: export filters → [cache] → ribout → session. *)
  let fsm_ref = ref None in
  let ribout =
    new Bgp_ribout.rib_out ~name:(pname ^ ":out") ~info ~local_as:t.local_as
      ~local_addr:cfg.local_addr
      ~send:(fun msg ->
          match !fsm_ref with
          | Some fsm -> Peer_fsm.send_update fsm msg
          | None -> false)
      ~ordered:t.lane_ordered t.loop
  in
  (* Output branch head: an optional aggregation stage in front of the
     export filters (§8.3-style late addition; neighbours unchanged). *)
  let aggregation =
    match cfg.aggregates with
    | [] -> None
    | aggregates ->
      Some
        (new Bgp_aggregation.aggregation_table
          ~name:(pname ^ ":aggregation") ~aggregates
          ~local_nexthop:cfg.local_addr
          ~parent:(t.fanout :> Bgp_table.table)
          ())
  in
  let export_parent =
    match aggregation with
    | Some a -> (a :> Bgp_table.table)
    | None -> (t.fanout :> Bgp_table.table)
  in
  let export_filter =
    new Bgp_filter.filter_table
      ~name:(pname ^ ":export")
      ~parent:export_parent
      ~local_as:t.local_as ~peer_as:cfg.peer_as
      ~programs:cfg.export_policies ()
  in
  (match aggregation with
   | Some a -> Bgp_table.plumb a export_filter
   | None -> ());
  let out_cache =
    if cfg.checking_cache then
      Some
        (new Bgp_cache.cache_table
          ~name:(pname ^ ":cache")
          ~parent:(export_filter :> Bgp_table.table)
          ())
    else None
  in
  (match out_cache with
   | Some c ->
     Bgp_table.plumb export_filter c;
     Bgp_table.plumb c ribout
   | None -> Bgp_table.plumb export_filter ribout);
  let rec peer =
    lazy
      {
        cfg; info;
        fsm =
          Peer_fsm.create t.loop
            { Peer_fsm.local_as = t.local_as; bgp_id = t.bgp_id;
              peer_as = cfg.peer_as; hold_time = cfg.hold_time }
            {
              Peer_fsm.on_established =
                (fun () -> on_peer_established t (Lazy.force peer) ());
              on_update = (fun msg -> handle_update t (Lazy.force peer) msg);
              on_down = (fun reason -> on_peer_down t (Lazy.force peer) reason);
            };
        ribin; import_filter; damping_tbl; nexthop_tbl;
        export_branch =
          (match aggregation with
           | Some a -> (a :> Bgp_table.table)
           | None -> (export_filter :> Bgp_table.table));
        out_cache; ribout;
        inbound = Queue.create (); inbound_task = None;
        retry_timer = None; endpoint = None; dump_task = None; removed = false;
        was_established = false;
      }
  in
  let peer = Lazy.force peer in
  fsm_ref := Some peer.fsm;
  peer

(* --- XRL interface ----------------------------------------------------- *)

let route_count t = t.decision#winner_count
let fold_winners t f init = t.decision#fold_winners f init

let originate t net =
  t.local_ribin#add_route
    { Bgp_types.net;
      attrs = Bgp_types.default_attrs ~nexthop:t.bgp_id;
      peer_id = 0; igp_metric = Some 0 }

let withdraw t net =
  t.local_ribin#delete_route
    { Bgp_types.net;
      attrs = Bgp_types.default_attrs ~nexthop:t.bgp_id;
      peer_id = 0; igp_metric = Some 0 }

(* Redistribution INTO BGP (§3): the RIB's redist stage can feed us
   IGP routes, which we originate with INCOMPLETE origin, as real
   routers mark redistributed routes. *)
let redistributed t : Rib_client.redist -> unit = function
  | Add { net; metric; _ } ->
    t.local_ribin#add_route
      { Bgp_types.net;
        attrs =
          { (Bgp_types.default_attrs ~nexthop:t.bgp_id) with
            Bgp_types.origin = Bgp_types.INCOMPLETE;
            med = (if metric = 0 then None else Some metric) };
        peer_id = 0; igp_metric = Some 0 }
  | Delete net -> withdraw t net

let add_xrl_handlers t =
  let ok = Xrl_error.Ok_xrl in
  let r = t.router in
  Xrl_router.add_handler r ~interface:"rib_client"
    ~method_name:"route_info_invalid" (fun args reply ->
        let valid = Xrl_atom.get_ipv4net args "valid" in
        Hashtbl.iter
          (fun _ peer -> peer.nexthop_tbl#invalidate valid)
          t.peers;
        reply ok []);
  Xrl_router.add_handler r ~interface:"bgp" ~method_name:"originate_route"
    (fun args reply ->
       originate t (Xrl_atom.get_ipv4net args "net");
       reply ok []);
  Xrl_router.add_handler r ~interface:"bgp" ~method_name:"withdraw_route"
    (fun args reply ->
       withdraw t (Xrl_atom.get_ipv4net args "net");
       reply ok []);
  Xrl_router.add_handler r ~interface:"bgp" ~method_name:"get_route_count"
    (fun _ reply -> reply ok [ Xrl_atom.u32 "count" (route_count t) ]);
  Xrl_router.add_handler r ~interface:"bgp" ~method_name:"get_peer_state"
    (fun args reply ->
       let addr = Xrl_atom.get_ipv4 args "peer" in
       match find_peer t addr with
       | Some peer ->
         reply ok
           [ Xrl_atom.txt "state"
               (Peer_fsm.state_to_string (Peer_fsm.state peer.fsm)) ]
       | None ->
         reply
           (Xrl_error.Command_failed ("no peer " ^ Ipv4.to_string addr))
           []);
  Xrl_router.add_handler r ~interface:"bgp" ~method_name:"list_peers"
    (fun _ reply ->
       let vals =
         Hashtbl.fold
           (fun _ peer acc ->
              Xrl_atom.Txt (Ipv4.to_string peer.cfg.peer_addr) :: acc)
           t.peers []
       in
       reply ok [ Xrl_atom.list "peers" vals ])

(* --- public API --------------------------------------------------------- *)

let create ?families ?(send_to_rib = true) ?(nexthop_mode = `Rib)
    ?(bgp_port = 179) ?(inbound_slice = 64) ?(urgent_threshold = 64)
    ?(lane_ordered = true) ?(rib_rebirth_resync = true)
    ?(redump_on_reestablish = true) finder loop ~netsim ~local_as ~bgp_id () =
  if inbound_slice < 1 || urgent_threshold < 1 then
    invalid_arg "Bgp_process.create";
  (* A fresh generation starts its metric namespace from zero, so a
     restarted BGP process does not inherit the dead instance's counts. *)
  Telemetry.reset_prefix "bgp.";
  let router = Xrl_router.create ?families finder loop ~class_name:"bgp" () in
  let decision = new Bgp_decision.decision_table ~name:"decision" () in
  let rec t =
    lazy
      (let fanout =
         (* The bulk-lane batch scales with the inbound slice so the
            fanout drains at least as fast as staging refills it, while
            staying bounded per turn. *)
         new Bgp_fanout.fanout_table ~name:"fanout"
           ~batch:(2 * inbound_slice) ~ordered:lane_ordered
           ~peer_info_of:(fun id -> decision#peer_info id)
           loop
       in
       {
         router; loop; netsim; clock = (fun () -> Eventloop.now loop);
         pt_entering = Telemetry.Profile.point pp_entering;
         pt_queued_rib = Telemetry.Profile.point pp_queued_rib;
         pt_sent_rib = Telemetry.Profile.point pp_sent_rib;
         local_as; bgp_id; bgp_port;
         send_to_rib; nexthop_mode;
         inbound_slice; urgent_threshold; lane_ordered;
         inbound_backlog = 0;
         g_inbound = Telemetry.gauge "bgp.inbound.backlog";
         peers = Hashtbl.create 8; peer_kinds = Hashtbl.create 8;
         next_peer_id = 0;
         decision; fanout;
         local_ribin = new Bgp_ribin.rib_in ~name:"local" ~peer_id:0 loop;
         listeners = Hashtbl.create 4;
         rib =
           Rib_client.create router ~resync:rib_rebirth_resync
             ~on_death:(fun () -> rib_died (Lazy.force t))
             ~redist:(fun r -> redistributed (Lazy.force t) r)
             ~replay:(fun () -> replay_rib (Lazy.force t))
             ();
         rib_q = Laneq.create ~ordered:lane_ordered ();
         rib_flush_scheduled = false;
         redump_on_reestablish;
         started = false;
       })
  in
  let t = Lazy.force t in
  t.decision#set_next (Some (t.fanout :> Bgp_table.table));
  t.fanout#set_parent (t.decision :> Bgp_table.table);
  (* Local branch: originated networks, already "resolved". *)
  Bgp_table.plumb t.local_ribin t.decision;
  t.decision#add_parent
    ~info:(Bgp_types.local_peer_info ~local_as ~bgp_id)
    (t.local_ribin :> Bgp_table.table);
  (* RIB branch reads the fanout like any peer. *)
  let rib_branch = make_rib_branch t in
  t.fanout#add_reader
    ~info:
      { Bgp_types.peer_id = -1; peer_addr = Ipv4.zero; peer_as = 0;
        kind = Bgp_types.Ebgp; peer_bgp_id = Ipv4.zero }
    rib_branch;
  add_xrl_handlers t;
  t

let ensure_listener t local_addr =
  let key = Ipv4.to_int local_addr in
  if not (Hashtbl.mem t.listeners key) then begin
    let listener =
      Netsim.Stream.listen t.netsim ~addr:local_addr ~port:t.bgp_port
        (fun ep ->
           let remote = Netsim.Stream.remote_addr ep in
           match find_peer t remote with
           | Some peer when not peer.removed -> attach_endpoint t peer ep
           | _ ->
             Log.debug (fun m ->
                 m "refusing connection from unconfigured %s"
                   (Ipv4.to_string remote));
             Netsim.Stream.close ep)
    in
    Hashtbl.replace t.listeners key listener
  end

let start_peer t peer =
  if is_dialer peer then dial t peer else Peer_fsm.start_passive peer.fsm

let add_peer t cfg =
  if Hashtbl.mem t.peers (peer_key cfg.peer_addr) then
    invalid_arg
      ("Bgp_process.add_peer: duplicate " ^ Ipv4.to_string cfg.peer_addr);
  let peer = build_peer t cfg in
  Hashtbl.replace t.peers (peer_key cfg.peer_addr) peer;
  if t.started then begin
    ensure_listener t cfg.local_addr;
    start_peer t peer
  end

let start t =
  if not t.started then begin
    t.started <- true;
    Hashtbl.iter (fun _ peer -> ensure_listener t peer.cfg.local_addr) t.peers;
    Hashtbl.iter (fun _ peer -> start_peer t peer) t.peers
  end

let remove_peer t addr =
  match find_peer t addr with
  | None -> ()
  | Some peer ->
    peer.removed <- true;
    (match peer.retry_timer with
     | Some timer -> Eventloop.cancel timer
     | None -> ());
    let state = Peer_fsm.state peer.fsm in
    Peer_fsm.stop peer.fsm;
    (* stop does not fire on_down; clean up the branch ourselves. *)
    if state = Peer_fsm.Established then begin
      t.fanout#remove_reader peer.info.peer_id;
      (match peer.dump_task with
       | Some task -> Eventloop.remove_task task
       | None -> ())
    end;
    clear_inbound t peer;
    peer.ribin#peering_went_down ~slice:peer.cfg.deletion_slice ();
    (* Permanent removal: detach the branch from the decision process.
       The deletion stage's withdrawals still trigger re-evaluation,
       which now simply no longer finds this branch's candidates. *)
    t.decision#remove_parent peer.info.peer_id;
    Hashtbl.remove t.peers (peer_key addr)

let subscribe_rib_redistribution t ~policy =
  Rib_client.subscribe_redistribution t.rib ~policy

let peer_state t addr = Option.map (fun p -> Peer_fsm.state p.fsm) (find_peer t addr)

let peer_addresses t =
  Hashtbl.fold (fun _ p acc -> p.cfg.peer_addr :: acc) t.peers []
  |> List.sort Ipv4.compare

let established_count t =
  Hashtbl.fold
    (fun _ p acc ->
       if Peer_fsm.state p.fsm = Peer_fsm.Established then acc + 1 else acc)
    t.peers 0

let ribin_count t addr =
  match find_peer t addr with Some p -> p.ribin#route_count | None -> 0

let deletion_stages t addr =
  match find_peer t addr with
  | Some p -> p.ribin#active_deletion_stages
  | None -> 0

let cache_violations t =
  Hashtbl.fold
    (fun _ p acc ->
       match p.out_cache with Some c -> c#violations @ acc | None -> acc)
    t.peers []

let set_import_policies t addr programs =
  match find_peer t addr with
  | None -> false
  | Some peer ->
    let it = peer.ribin#safe_iter in
    peer.import_filter#replace_programs ~loop:t.loop
      ~pull:(fun () -> Option.map snd (Ptree.Safe_iter.next it))
      programs;
    true

(* Fault injection for tests and experiments: cut a session silently,
   so only the hold timer can notice. *)
let sever_session t addr =
  match find_peer t addr with
  | Some ({ endpoint = Some ep; _ }) ->
    Netsim.Stream.sever ep;
    true
  | _ -> false

let fanout_queue_length t = t.fanout#queue_length

let shutdown t =
  Hashtbl.iter
    (fun _ peer ->
       peer.removed <- true;
       (match peer.retry_timer with
        | Some timer -> Eventloop.cancel timer
        | None -> ());
       (match peer.dump_task with
        | Some task ->
          Eventloop.remove_task task;
          peer.dump_task <- None
        | None -> ());
       clear_inbound t peer;
       Peer_fsm.stop peer.fsm)
    t.peers;
  Hashtbl.iter (fun _ l -> Netsim.Stream.unlisten l) t.listeners;
  Hashtbl.reset t.listeners;
  Hashtbl.reset t.peers;
  Xrl_router.shutdown t.router
