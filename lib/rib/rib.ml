let src = Logs.Src.create "xorp.rib" ~doc:"Routing Information Base"

module Log = (val Logs.src_log src : Logs.LOG)

let pp_arrived = "rib_arrived"
let pp_queued_fea = "rib_queued_fea"
let pp_sent_fea = "rib_sent_fea"

(* One FIB change: a Replace travels as an add, which the FIB applies
   over the entry it holds. *)
type fea_op = Laneq.change * Rib_route.t * Telemetry.Trace.ctx option

type t = {
  router : Xrl_router.t;
  loop : Eventloop.t;
  clock : unit -> float; (* the loop's clock, for spans and points *)
  pt_arrived : Telemetry.Profile.point;
  pt_queued_fea : Telemetry.Profile.point;
  pt_sent_fea : Telemetry.Profile.point;
  origins : (string, Origin_table.origin_table) Hashtbl.t;
  register : Register_table.register_table;
  redist : Redist_table.redist_table;
  send_to_fea : bool;
  (* Outbound transmit queue towards the FEA: route changes made
     within one event-loop turn coalesce here and flush together on
     the next iteration. Each entry carries the trace context that was
     ambient when it was queued. Changes to one prefix fold into one
     entry per lane ([Laneq.merge_changes]), so the queue holds at most
     one entry per prefix and lane. *)
  fea_q : fea_op Laneq.t;
  mutable fea_flush_armed : bool;
  (* Lane for FIB pushes produced by the code running now: urgent by
     default (the per-route XRLs and the direct API); a packed run
     states its own, and a gradual protocol flush is bulk. Set around
     that code, never stored in entries — the Laneq remembers which
     lane each entry sits in. *)
  mutable fea_lane : Laneq.lane;
  g_fea_depth : Telemetry.gauge;
  g_fea_urgent : Telemetry.gauge;
  g_fea_bulk : Telemetry.gauge;
}

let set_fea_gauges t =
  Telemetry.set_gauge t.g_fea_depth (float_of_int (Laneq.length t.fea_q));
  Telemetry.set_gauge t.g_fea_urgent
    (float_of_int (Laneq.urgent_length t.fea_q));
  Telemetry.set_gauge t.g_fea_bulk (float_of_int (Laneq.bulk_length t.fea_q))

let with_fea_lane t lane f =
  let saved = t.fea_lane in
  t.fea_lane <- lane;
  Fun.protect ~finally:(fun () -> t.fea_lane <- saved) f

(* --- FEA sink ------------------------------------------------------- *)

let op_net ((_, r, _) : fea_op) = r.Rib_route.net

let op_is_add ((change, _, _) : fea_op) =
  match change with Laneq.Add | Replace -> true | Delete -> false

(* A replacement records as an add at the §8.2 points. *)
let op_verb op : Telemetry.Profile.verb = if op_is_add op then Add else Delete

(* A run of consecutive same-kind ops leaves as one packed XRL.
   Profile points stay per route. The run's first trace context parents
   the send span and the reply; the span notes the prefix of a run of
   one. *)
let send_run t (ops : fea_op list) =
  match ops with
  | [] -> ()
  | ((_, _, first_ctx) as first_op) :: _ ->
    let n = List.length ops in
    List.iter
      (fun op ->
         Telemetry.Profile.record t.pt_sent_fea ~clock:t.clock (op_verb op)
           (op_net op))
      ops;
    Telemetry.Trace.with_ctx first_ctx @@ fun () ->
    Telemetry.Trace.span_sync ~name:"rib.fea_send"
      ~note:(Telemetry.Trace.run_note op_net ops) ~clock:t.clock
    @@ fun () ->
    let packed, method_name =
      if op_is_add first_op then
        ( Route_pack.pack_adds
            (List.map
               (fun (_, (r : Rib_route.t), _) ->
                  { Route_pack.net = r.net; nexthop = r.nexthop;
                    ifname = ""; protocol = r.protocol; metric = r.metric })
               ops),
          "add_routes4" )
      else
        ( Route_pack.pack_deletes (List.map op_net ops),
          "delete_routes4" )
    in
    let xrl =
      Xrl.make ~target:"fea" ~interface:"fea" ~method_name
        [ Xrl_atom.binary "routes" packed ]
    in
    (* FIB updates are idempotent, so a failed one is retried. *)
    Xrl_router.send ~retry:Xrl_router.default_retry t.router xrl (fun err _ ->
        if not (Xrl_error.is_ok err) then
          Log.warn (fun m ->
              m "FEA %s (%d routes) failed: %s" method_name n
                (Xrl_error.to_string err)))

(* Bulk-lane FIB updates drained per flush slice: bounds the packing
   work (and the size of each bulk XRL run) one loop turn spends on the
   RIB->FEA leg, so a flap's urgent FIB update is never stuck behind a
   full-table load already queued here. *)
let fea_bulk_slice = 1024

(* Nothing is held for a dead FEA: a reborn one gets the full replay. *)
let drop_fea_q t =
  Laneq.clear t.fea_q;
  set_fea_gauges t

let rec flush_fea t =
  t.fea_flush_armed <- false;
  if not (Xrl_router.peer_live t.router "fea") then drop_fea_q t
  else begin
    (* One slice: the urgent lane drained dry (flap-sized), then a
       bounded bulk batch, in runs of same-kind ops (a replace travels
       as an add), so an add/delete alternation reaches the FIB in
       sequence. Per-prefix order across lanes is preserved by the
       Laneq demotion guard. *)
    Laneq.drain_runs t.fea_q ~bulk_slice:fea_bulk_slice
      ~same:(fun a b -> op_is_add a = op_is_add b)
      (fun _lane ops -> send_run t ops);
    set_fea_gauges t;
    (* Leftover bulk re-defers: the next loop turn gets a chance to
       interleave fresh urgent work ahead of it. *)
    if not (Laneq.is_empty t.fea_q) then begin
      t.fea_flush_armed <- true;
      Eventloop.defer t.loop (fun () -> flush_fea t)
    end
  end

let send_fea t change (r : Rib_route.t) =
  if t.send_to_fea && Xrl_router.peer_live t.router "fea" then begin
    let op = (change, r, Telemetry.Trace.current ()) in
    Telemetry.Profile.record t.pt_queued_fea ~clock:t.clock (op_verb op)
      r.net;
    (* Queue-then-send: the actual XRL goes out on the next loop
       iteration, like a real outbound transmit queue — and everything
       queued within this turn flushes together (one packed XRL per
       same-kind run). The deferral would lose the ambient trace
       context, so capture it per entry and reinstate it at send. *)
    Laneq.push ~merge:Laneq.merge_changes t.fea_q t.fea_lane ~net:r.net op;
    set_fea_gauges t;
    if not t.fea_flush_armed then begin
      t.fea_flush_armed <- true;
      Eventloop.defer t.loop (fun () -> flush_fea t)
    end
  end

(* --- client notifications ------------------------------------------- *)

let notify_invalid router client valid =
  let xrl =
    Xrl.make ~target:client ~interface:"rib_client"
      ~method_name:"route_info_invalid"
      [ Xrl_atom.ipv4net "valid" valid ]
  in
  Xrl_router.send router xrl (fun err _ ->
      if not (Xrl_error.is_ok err) then
        Log.debug (fun m ->
            m "invalidation to %s failed: %s" client (Xrl_error.to_string err)))

(* --- assembly ------------------------------------------------------- *)

let igp_protocols = [ "connected"; "static"; "ospf"; "rip" ]
let egp_protocols = [ "ebgp"; "ibgp" ]

let build_pipeline t_router loop =
  let origin name = new Origin_table.origin_table ~name:("origin:" ^ name) ~protocol:name loop in
  let origins = Hashtbl.create 8 in
  List.iter
    (fun p -> Hashtbl.replace origins p (origin p))
    (igp_protocols @ egp_protocols);
  let o p = (Hashtbl.find origins p :> Rib_table.table) in
  let om p = Hashtbl.find origins p in
  (* Internal chain: lower admin distance plumbed as the tie-winning
     "a" side; ties cannot actually occur since distances differ. *)
  let m1 = new Merge_table.merge_table ~name:"merge:connected+static" (o "connected") (o "static") in
  Rib_table.plumb (om "connected") m1;
  Rib_table.plumb (om "static") m1;
  let m2 = new Merge_table.merge_table ~name:"merge:+ospf" (m1 :> Rib_table.table) (o "ospf") in
  Rib_table.plumb m1 m2;
  Rib_table.plumb (om "ospf") m2;
  let m3 = new Merge_table.merge_table ~name:"merge:+rip" (m2 :> Rib_table.table) (o "rip") in
  Rib_table.plumb m2 m3;
  Rib_table.plumb (om "rip") m3;
  let me = new Merge_table.merge_table ~name:"merge:ebgp+ibgp" (o "ebgp") (o "ibgp") in
  Rib_table.plumb (om "ebgp") me;
  Rib_table.plumb (om "ibgp") me;
  let extint =
    new Extint_table.extint_table ~name:"extint"
      (me :> Rib_table.table)
      (m3 :> Rib_table.table)
  in
  Rib_table.plumb me extint;
  Rib_table.plumb m3 extint;
  let register =
    new Register_table.register_table ~name:"register"
      ~notify:(fun client valid -> notify_invalid (t_router ()) client valid)
      ()
  in
  Rib_table.plumb extint register;
  let redist =
    new Redist_table.redist_table ~name:"redist"
      ~parent:(register :> Rib_table.table) ()
  in
  Rib_table.plumb register redist;
  (origins, register, redist)

(* --- direct API ------------------------------------------------------ *)

let origin_of t protocol = Hashtbl.find_opt t.origins protocol

let add_route t ~protocol ~net ~nexthop ?(metric = 0) () =
  match origin_of t protocol with
  | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
  | Some origin ->
    let r = Rib_route.make ~net ~nexthop ~metric ~protocol () in
    origin#originate r;
    Ok ()

let delete_route t ~protocol ~net =
  match origin_of t protocol with
  | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
  | Some origin ->
    (match origin#lookup_route net with
     | Some _ ->
       origin#withdraw net;
       Ok ()
     | None ->
       Error
         (Printf.sprintf "%s has no route for %s" protocol
            (Ipv4net.to_string net)))

let lookup_best t addr = t.register#lookup_best addr
let route_count t = t.register#route_count

let register_interest t ~client addr = t.register#register_interest ~client addr

let deregister_interest t ~client valid =
  t.register#deregister_interest ~client valid

let fold_winners t f init = t.register#fold f init

let subscribe_redist t ~name ~policy ~on_add ~on_delete =
  t.redist#subscribe
    { Redist_table.sub_name = name; policy; on_add; on_delete };
  (* Dump current winners through the new subscriber's filter. *)
  fold_winners t
    (fun r () ->
       match Redist_table.apply_policy policy r with
       | Some r' -> on_add r'
       | None -> ())
    ()

let unsubscribe_redist t ~name = t.redist#unsubscribe name

let origin_route_count t protocol =
  match origin_of t protocol with
  | Some origin -> origin#route_count
  | None -> 0

let flush_protocol t protocol =
  match origin_of t protocol with
  | Some origin ->
    Log.info (fun m -> m "flushing %s routes in the background" protocol);
    (* A whole-table teardown is bulk work, as in BGP's deletion
       stage: its FIB deletes must not crowd flaps out of the urgent
       lane. *)
    origin#clear_gradually ~around:(with_fea_lane t Laneq.Bulk) ()
  | None -> ()

let xrl_router t = t.router
let invalidations_sent t = t.register#invalidations_sent
let fea_queue_length t = Laneq.length t.fea_q

(* --- XRL interface --------------------------------------------------- *)

let ok = Xrl_error.Ok_xrl

let add_xrl_handlers t =
  let r = t.router in
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"add_route"
    (fun args reply ->
       let protocol = Xrl_atom.get_txt args "protocol" in
       let net = Xrl_atom.get_ipv4net args "net" in
       let nexthop = Xrl_atom.get_ipv4 args "nexthop" in
       let metric =
         match Xrl_atom.find args "metric" with
         | Some { value = U32 m; _ } -> m
         | _ -> 0
       in
       Telemetry.Profile.record t.pt_arrived ~clock:t.clock Add net;
       match
         Telemetry.Trace.span_sync ~name:"rib.route_add" ~note:(Net net)
           ~clock:t.clock
           (fun () -> add_route t ~protocol ~net ~nexthop ~metric ())
       with
       | Ok () -> reply ok []
       | Error msg -> reply (Xrl_error.Command_failed msg) []);
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"delete_route"
    (fun args reply ->
       let protocol = Xrl_atom.get_txt args "protocol" in
       let net = Xrl_atom.get_ipv4net args "net" in
       Telemetry.Profile.record t.pt_arrived ~clock:t.clock Delete net;
       match
         Telemetry.Trace.span_sync ~name:"rib.route_delete" ~note:(Net net)
           ~clock:t.clock
           (fun () -> delete_route t ~protocol ~net)
       with
       | Ok () -> reply ok []
       | Error msg -> reply (Xrl_error.Command_failed msg) []);
  (* Packed runs, mirroring fea/add_routes4: one XRL carries a whole
     Route_pack-packed run from BGP's RIB-output queue, so a full-table
     load crosses the BGP->RIB boundary in hundreds of calls instead of
     146k. Profile points stay per route. The run states its lane, and
     its FIB pushes ride that lane: a table load in flight cannot crowd
     a concurrent flap out of the RIB->FEA leg. *)
  let lane_of args : Laneq.lane =
    if Xrl_atom.get_bool args "urgent" then Urgent else Bulk
  in
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"add_routes4"
    (fun args reply ->
       let lane = lane_of args in
       let packed = Xrl_atom.get_binary args "routes" in
       match Route_pack.unpack_adds packed with
       | Error msg -> reply (Xrl_error.Bad_args ("routes: " ^ msg)) []
       | Ok adds ->
         let n = List.length adds in
         let failed = ref 0 in
         Telemetry.Trace.span_sync ~name:"rib.route_add_bulk"
           ~note:
             (Telemetry.Trace.run_note (fun (a : Route_pack.add) -> a.net) adds)
           ~clock:t.clock
           (fun () ->
              with_fea_lane t lane @@ fun () ->
              List.iter
                (fun { Route_pack.net; nexthop; protocol; metric; ifname = _ } ->
                   Telemetry.Profile.record t.pt_arrived ~clock:t.clock Add
                     net;
                   match add_route t ~protocol ~net ~nexthop ~metric () with
                   | Ok () -> ()
                   | Error msg ->
                     incr failed;
                     Log.warn (fun m ->
                         m "bulk add %s: %s" (Ipv4net.to_string net) msg))
                adds);
         if !failed = 0 then reply ok [ Xrl_atom.u32 "count" n ]
         else
           reply
             (Xrl_error.Command_failed
                (Printf.sprintf "%d/%d adds failed" !failed n))
             []);
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"delete_routes4"
    (fun args reply ->
       let lane = lane_of args in
       let protocol = Xrl_atom.get_txt args "protocol" in
       let packed = Xrl_atom.get_binary args "routes" in
       match Route_pack.unpack_deletes packed with
       | Error msg -> reply (Xrl_error.Bad_args ("routes: " ^ msg)) []
       | Ok nets ->
         let n = List.length nets in
         let failed = ref 0 in
         Telemetry.Trace.span_sync ~name:"rib.route_delete_bulk"
           ~note:(Telemetry.Trace.run_note Fun.id nets)
           ~clock:t.clock
           (fun () ->
              with_fea_lane t lane @@ fun () ->
              List.iter
                (fun net ->
                   Telemetry.Profile.record t.pt_arrived ~clock:t.clock
                     Delete net;
                   match delete_route t ~protocol ~net with
                   | Ok () -> ()
                   | Error msg ->
                     incr failed;
                     Log.warn (fun m ->
                         m "bulk delete %s: %s" (Ipv4net.to_string net) msg))
                nets);
         if !failed = 0 then reply ok [ Xrl_atom.u32 "count" n ]
         else
           reply
             (Xrl_error.Command_failed
                (Printf.sprintf "%d/%d deletes failed" !failed n))
             []);
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"lookup_route_by_dest"
    (fun args reply ->
       let addr = Xrl_atom.get_ipv4 args "addr" in
       match lookup_best t addr with
       | Some route ->
         reply ok
           [ Xrl_atom.ipv4net "net" route.Rib_route.net;
             Xrl_atom.ipv4 "nexthop" route.nexthop;
             Xrl_atom.u32 "metric" route.metric;
             Xrl_atom.u32 "admin_distance" route.admin_distance;
             Xrl_atom.txt "protocol" route.protocol ]
       | None ->
         reply
           (Xrl_error.Command_failed ("no route to " ^ Ipv4.to_string addr))
           []);
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"register_interest"
    (fun args reply ->
       let client = Xrl_atom.get_txt args "client" in
       let addr = Xrl_atom.get_ipv4 args "addr" in
       let answer = register_interest t ~client addr in
       let base =
         [ Xrl_atom.boolean "resolves" (answer.Register_table.matched <> None);
           Xrl_atom.ipv4net "valid" answer.Register_table.valid_subnet ]
       in
       let extra =
         match answer.Register_table.matched with
         | Some route ->
           [ Xrl_atom.ipv4net "net" route.Rib_route.net;
             Xrl_atom.ipv4 "nexthop" route.nexthop;
             Xrl_atom.u32 "metric" route.metric;
             Xrl_atom.txt "protocol" route.protocol ]
         | None -> []
       in
       reply ok (base @ extra));
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"deregister_interest"
    (fun args reply ->
       let client = Xrl_atom.get_txt args "client" in
       let valid = Xrl_atom.get_ipv4net args "valid" in
       if deregister_interest t ~client valid then reply ok []
       else
         reply
           (Xrl_error.Command_failed
              ("no registration for " ^ Ipv4net.to_string valid))
           []);
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"redist_subscribe"
    (fun args reply ->
       let target = Xrl_atom.get_txt args "target" in
       let source = Xrl_atom.get_txt args "policy" in
       match Policy.compile source with
       | Error msg -> reply (Xrl_error.Command_failed ("bad policy: " ^ msg)) []
       | Ok policy ->
         let deliver method_name (route : Rib_route.t) =
           let xrl =
             Xrl.make ~target ~interface:"redist_client" ~method_name
               [ Xrl_atom.txt "protocol" route.Rib_route.protocol;
                 Xrl_atom.ipv4net "net" route.net;
                 Xrl_atom.ipv4 "nexthop" route.nexthop;
                 Xrl_atom.u32 "metric" route.metric;
                 Xrl_atom.u32 "tag"
                   (match route.tags with tag :: _ -> tag | [] -> 0) ]
           in
           Xrl_router.send t.router xrl (fun err _ ->
               if not (Xrl_error.is_ok err) then
                 Log.debug (fun m ->
                     m "redist to %s failed: %s" target
                       (Xrl_error.to_string err)))
         in
         subscribe_redist t ~name:target ~policy
           ~on_add:(deliver "add_route") ~on_delete:(deliver "delete_route");
         reply ok []);
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"redist_unsubscribe"
    (fun args reply ->
       let target = Xrl_atom.get_txt args "target" in
       unsubscribe_redist t ~name:target;
       reply ok []);
  Xrl_router.add_handler r ~interface:"rib" ~method_name:"get_route_count"
    (fun _ reply -> reply ok [ Xrl_atom.u32 "count" (route_count t) ])

(* Watch protocol component classes; when the last instance of a class
   dies, flush its origin tables in the background (§6.2's lifetime
   notification put to use). *)
let watch_protocol_deaths t =
  let watch cls protos =
    Xrl_router.watch_peer t.router ~cls
      ~on_death:(fun () -> List.iter (flush_protocol t) protos)
      ()
  in
  watch "rip" [ "rip" ];
  watch "bgp" [ "ebgp"; "ibgp" ];
  watch "ospf" [ "ospf" ]

(* A reborn FEA starts from an empty FIB: replace whatever was queued
   since its birth with a full dump of the current winners. *)
let replay_fib t =
  Laneq.clear t.fea_q;
  (* A full-FIB dump is the definition of bulk work: fresh urgent
     changes for other prefixes overtake it, while the Laneq guard
     keeps a change to a replayed prefix behind its replay entry. *)
  let n =
    fold_winners t
      (fun r n ->
         Laneq.push t.fea_q Laneq.Bulk ~net:r.Rib_route.net
           (Laneq.Add, r, None);
         n + 1)
      0
  in
  Log.info (fun m -> m "FEA is back; replaying %d FIB entries" n);
  set_fea_gauges t;
  if (not t.fea_flush_armed) && not (Laneq.is_empty t.fea_q) then begin
    t.fea_flush_armed <- true;
    Eventloop.defer t.loop (fun () -> flush_fea t)
  end

(* Watch the FEA's own lifetime: while no instance is live, FIB
   updates are dropped; a (re)birth triggers the full replay above.
   Without [rebirth_replay] (the simulation harness's injected bug)
   nothing is re-sent, so every route installed before the death is
   silently missing from the reborn FIB. *)
let watch_fea_lifecycle ~rebirth_replay t =
  Xrl_router.watch_peer t.router ~cls:"fea"
    ~on_death:(fun () ->
        Log.warn (fun m ->
            m "FEA died; dropping FIB updates until an instance returns");
        drop_fea_q t)
    ?on_rebirth:(if rebirth_replay then Some (fun () -> replay_fib t) else None)
    ()

let create ?families ?(send_to_fea = true) ?(fea_rebirth_replay = true)
    finder loop () =
  (* A fresh generation starts its metric namespace from zero, so a
     restarted RIB does not inherit the dead instance's counts. *)
  Telemetry.reset_prefix "rib.";
  let router =
    Xrl_router.create ?families finder loop ~class_name:"rib" ~sole:true ()
  in
  let t_ref = ref None in
  let origins, register, redist =
    build_pipeline (fun () -> Option.get !t_ref) loop
  in
  let t =
    { router; loop; clock = (fun () -> Eventloop.now loop);
      pt_arrived = Telemetry.Profile.point pp_arrived;
      pt_queued_fea = Telemetry.Profile.point pp_queued_fea;
      pt_sent_fea = Telemetry.Profile.point pp_sent_fea;
      origins; register; redist; send_to_fea;
      fea_q = Laneq.create (); fea_flush_armed = false;
      fea_lane = Laneq.Urgent;
      g_fea_depth = Telemetry.gauge "rib.fea_q.depth";
      g_fea_urgent = Telemetry.gauge "rib.fea_q.urgent";
      g_fea_bulk = Telemetry.gauge "rib.fea_q.bulk" }
  in
  t_ref := Some router;
  (* Terminal sink: winners flow to the FEA, a replace as one add. *)
  let sink =
    object
      inherit
        Rib_table.sink ~name:"sink"
          ~parent:(redist :> Rib_table.table)
          ~on_add:(send_fea t Laneq.Add)
          ~on_delete:(send_fea t Laneq.Delete)

      method! replace_route _src _old r = send_fea t Laneq.Replace r
    end
  in
  Rib_table.plumb redist sink;
  add_xrl_handlers t;
  watch_protocol_deaths t;
  if send_to_fea then watch_fea_lifecycle ~rebirth_replay:fea_rebirth_replay t;
  t

let shutdown t = Xrl_router.shutdown t.router
