let src = Logs.Src.create "xorp.rib_client" ~doc:"protocol-side RIB client"

module Log = (val Logs.src_log src : Logs.LOG)

type redist =
  | Add of { net : Ipv4net.t; metric : int; tag : int }
  | Delete of Ipv4net.t

type t = {
  router : Xrl_router.t;
  (* One entry per prefix, lane and RIB origin table: changes fold
     only within one table. *)
  q : Route_pack.add Route_runs.outbox;
  (* Redistribution policies subscribed with, newest first. *)
  mutable policies : string list;
}

let send router method_name args =
  Xrl_router.send ~retry:Xrl_router.default_retry router
    (Xrl.make ~target:"rib" ~interface:"rib" ~method_name args)
    (fun err _ ->
       if not (Xrl_error.is_ok err) then
         Log.warn (fun m ->
             m "rib %s failed: %s" method_name (Xrl_error.to_string err)))

(* A run of changes of one kind for one origin table leaves as one
   packed call, stating its lane: the RIB queues the FIB changes it
   makes in the same lane. *)
let send_run router lane (verb : Telemetry.Profile.verb)
    (routes : Route_pack.add list) =
  let urgent = Xrl_atom.boolean "urgent" (lane = Laneq.Urgent) in
  match verb with
  | Add ->
    send router "add_routes4"
      [ urgent; Xrl_atom.binary "routes" (Route_pack.pack_adds routes) ]
  | Delete ->
    send router "delete_routes4"
      [ urgent; Xrl_atom.txt "protocol" (List.hd routes).protocol;
        Xrl_atom.binary "routes"
          (Route_pack.pack_deletes
             (List.map (fun (r : Route_pack.add) -> r.net) routes)) ]

(* Bulk-lane routes sent per deferred flush: bounds how long one loop
   turn spends packing and how large a synchronous run the RIB's bulk
   handler processes, so an urgent flush in the next turn is never far
   away. *)
let bulk_slice = 128

let push t lane change r = Route_runs.push t.q lane change r

let send_subscribe t policy =
  send t.router "redist_subscribe"
    [ Xrl_atom.txt "target" (Xrl_router.instance_name t.router);
      Xrl_atom.txt "policy" policy ]

let subscribe_redistribution t ~policy =
  t.policies <- policy :: t.policies;
  send_subscribe t policy

let add_redist_handlers router deliver =
  let ok = Xrl_error.Ok_xrl in
  Xrl_router.add_handler router ~interface:"redist_client"
    ~method_name:"add_route" (fun args reply ->
        let net = Xrl_atom.get_ipv4net args "net" in
        let metric = Xrl_atom.get_u32 args "metric" in
        let tag = Xrl_atom.get_u32 args "tag" in
        deliver (Add { net; metric; tag });
        reply ok []);
  Xrl_router.add_handler router ~interface:"redist_client"
    ~method_name:"delete_route" (fun args reply ->
        deliver (Delete (Xrl_atom.get_ipv4net args "net"));
        reply ok [])

(* A reborn RIB has empty origin tables and an empty subscriber table:
   everything announced before the death, and every subscription, died
   with the old instance (the mirror of the RIB replaying the FIB into
   a reborn FEA). Nothing is held for a dead RIB, and a kill and a
   restart can fall in one event, so the queue is cleared at the death:
   its entries must not reach the newborn. *)
let create router ?ordered ?(resync = true) ?redist ~replay () =
  let cls = Xrl_router.class_name router in
  let q =
    Route_runs.outbox ?ordered
      ~same:(fun (a : Route_pack.add) b -> String.equal a.protocol b.protocol)
      router ~peer:"rib" ~name:(cls ^ ".rib_q") ~bulk_slice
      ~net:(fun (r : Route_pack.add) -> r.net)
      ~queued:(cls ^ "_queued_rib") ~sent:(cls ^ "_sent_rib")
      ~span:(cls ^ ".rib_send") (send_run router)
  in
  let t = { router; q; policies = [] } in
  let replayed = Telemetry.counter (cls ^ ".rib_resync.replayed") in
  Option.iter (add_redist_handlers router) redist;
  let on_death () =
    Log.warn (fun m ->
        m "%s: RIB died; dropping route updates until an instance returns"
          (Xrl_router.instance_name router));
    Route_runs.clear q
  in
  let on_rebirth () =
    List.iter (send_subscribe t) (List.rev t.policies);
    let n = Route_runs.replay q replay in
    Telemetry.add replayed n;
    Log.info (fun m ->
        m "%s: RIB is back; replayed %d routes"
          (Xrl_router.instance_name router) n)
  in
  Xrl_router.watch_peer router ~cls:"rib" ~on_death
    ?on_rebirth:(if resync then Some on_rebirth else None)
    ();
  t
