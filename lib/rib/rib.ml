let src = Logs.Src.create "xorp.rib" ~doc:"Routing Information Base"

module Log = (val Logs.src_log src : Logs.LOG)

let pp_arrived = "rib_arrived"
let pp_queued_fea = "rib_queued_fea"
let pp_sent_fea = "rib_sent_fea"

type t = {
  router : Xrl_router.t;
  origins : (string, Origin_table.origin_table) Hashtbl.t;
  register : Register_table.register_table;
  redist : Redist_table.redist_table;
  (* Outbound transmit queue towards the FEA: route changes made
     within one event-loop turn coalesce here, one entry per prefix and
     lane, and flush together on the next iteration. *)
  fea_q : Rib_route.t Route_runs.outbox;
  (* Lane for FIB pushes produced by the code running now: urgent by
     default (the direct API); a packed run states its own, and a
     gradual protocol flush is bulk. Set around that code, never
     stored in entries — the Laneq remembers which lane each entry
     sits in. *)
  mutable fea_lane : Laneq.lane;
}

let with_fea_lane t lane f =
  let saved = t.fea_lane in
  t.fea_lane <- lane;
  Fun.protect ~finally:(fun () -> t.fea_lane <- saved) f

(* --- FEA sink ------------------------------------------------------- *)

(* A run of one kind leaves as one packed XRL. *)
let send_fea_run router (verb : Telemetry.Profile.verb) routes =
  let packed, method_name =
    match verb with
    | Add ->
      ( Route_pack.pack_adds
          (List.map
             (fun (r : Rib_route.t) ->
                { Route_pack.net = r.net; nexthop = r.nexthop; ifname = "";
                  protocol = r.protocol; metric = r.metric })
             routes),
        "add_routes4" )
    | Delete ->
      ( Route_pack.pack_deletes
          (List.map (fun (r : Rib_route.t) -> r.net) routes),
        "delete_routes4" )
  in
  let xrl =
    Xrl.make ~target:"fea" ~interface:"fea" ~method_name
      [ Xrl_atom.binary "routes" packed ]
  in
  (* FIB updates are idempotent, so a failed one is retried. *)
  Xrl_router.send ~retry:Xrl_router.default_retry router xrl (fun err _ ->
      if not (Xrl_error.is_ok err) then
        Log.warn (fun m ->
            m "FEA %s (%d routes) failed: %s" method_name (List.length routes)
              (Xrl_error.to_string err)))

(* Bulk-lane FIB updates drained per flush slice: bounds the packing
   work (and the size of each bulk XRL run) one loop turn spends on the
   RIB->FEA leg, so a flap's urgent FIB update is never stuck behind a
   full-table load already queued here. *)
let fea_bulk_slice = 1024

let send_fea t change (r : Rib_route.t) =
  Route_runs.push t.fea_q t.fea_lane change r

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
let fea_queue_length t = Route_runs.length t.fea_q

(* --- XRL interface --------------------------------------------------- *)

let ok = Xrl_error.Ok_xrl

let add_xrl_handlers t =
  let r = t.router in
  (* Packed runs from each protocol's Rib_client queue, the one way
     routes arrive over XRL: a full-table load crosses the BGP->RIB
     boundary in hundreds of calls instead of 146k. The run states its
     lane, and its FIB pushes ride that lane: a table load in flight
     cannot crowd a concurrent flap out of the RIB->FEA leg. *)
  let in_lane args =
    with_fea_lane t
      (if Xrl_atom.get_bool args "urgent" then Laneq.Urgent else Bulk)
  in
  let applied what net = function
    | Ok () -> true
    | Error msg ->
      Log.warn (fun m -> m "bulk %s %s: %s" what (Ipv4net.to_string net) msg);
      false
  in
  Route_runs.serve r ~interface:"rib" Route_runs.adds
    ~span:"rib.route_add_bulk" ~arrived:pp_arrived ~refused:"%d/%d adds failed"
    (fun args ->
       let in_lane = in_lane args in
       fun { Route_pack.net; nexthop; protocol; metric; ifname = _ } ->
         applied "add" net
           (in_lane (fun () -> add_route t ~protocol ~net ~nexthop ~metric ())));
  Route_runs.serve r ~interface:"rib" Route_runs.deletes
    ~span:"rib.route_delete_bulk" ~arrived:pp_arrived
    ~refused:"%d/%d deletes failed"
    (fun args ->
       let in_lane = in_lane args in
       let protocol = Xrl_atom.get_txt args "protocol" in
       fun net ->
         applied "delete" net (in_lane (fun () -> delete_route t ~protocol ~net)));
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
   since its birth with a full dump of the current winners. A full-FIB
   dump is the definition of bulk work: fresh urgent changes for other
   prefixes overtake it, while the Laneq guard keeps a change to a
   replayed prefix behind its replay entry. *)
let replay_fib t =
  let n =
    Route_runs.replay t.fea_q (fun add -> fold_winners t (fun r () -> add r) ())
  in
  Log.info (fun m -> m "FEA is back; replaying %d FIB entries" n)

(* Watch the FEA's own lifetime: while no instance is live, FIB
   updates are dropped; a (re)birth triggers the full replay above.
   The queue is cleared at the death too: when a kill and a restart
   fall in one event, its stale entries must not reach the newborn.
   Without [rebirth_replay] (the simulation harness's injected bug)
   nothing is re-sent, so every route installed before the death is
   silently missing from the reborn FIB. *)
let watch_fea_lifecycle ~rebirth_replay t =
  Xrl_router.watch_peer t.router ~cls:"fea"
    ~on_death:(fun () ->
        Log.warn (fun m ->
            m "FEA died; dropping FIB updates until an instance returns");
        Route_runs.clear t.fea_q)
    ?on_rebirth:(if rebirth_replay then Some (fun () -> replay_fib t) else None)
    ()

let create ?families ?(fea_rebirth_replay = true) finder loop () =
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
    { router; origins; register; redist;
      fea_q =
        Route_runs.outbox router ~peer:"fea" ~name:"rib.fea_q"
          ~bulk_slice:fea_bulk_slice ~net:(fun r -> r.Rib_route.net)
          ~queued:pp_queued_fea ~sent:pp_sent_fea ~span:"rib.fea_send"
          (fun _lane verb routes -> send_fea_run router verb routes);
      fea_lane = Laneq.Urgent }
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
  watch_fea_lifecycle ~rebirth_replay:fea_rebirth_replay t;
  t

let shutdown t = Xrl_router.shutdown t.router
