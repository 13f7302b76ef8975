let src = Logs.Src.create "xorp.rib_client" ~doc:"protocol-side RIB client"

module Log = (val Logs.src_log src : Logs.LOG)

type redist =
  | Add of { net : Ipv4net.t; metric : int; tag : int }
  | Delete of Ipv4net.t

type t = {
  router : Xrl_router.t;
  (* Redistribution policies subscribed with, newest first. *)
  mutable policies : string list;
}

let send t method_name args =
  Xrl_router.send ~retry:Xrl_router.default_retry t.router
    (Xrl.make ~target:"rib" ~interface:"rib" ~method_name args)
    (fun err _ ->
       if not (Xrl_error.is_ok err) then
         Log.warn (fun m ->
             m "rib %s failed: %s" method_name (Xrl_error.to_string err)))

(* A route transfer: dropped while no RIB is live. *)
let transfer t method_name args =
  if Xrl_router.peer_live t.router "rib" then send t method_name args

let add_route t ~protocol ~net ~nexthop ~metric =
  transfer t "add_route"
    [ Xrl_atom.txt "protocol" protocol;
      Xrl_atom.ipv4net "net" net;
      Xrl_atom.ipv4 "nexthop" nexthop;
      Xrl_atom.u32 "metric" metric ]

let delete_route t ~protocol ~net =
  transfer t "delete_route"
    [ Xrl_atom.txt "protocol" protocol; Xrl_atom.ipv4net "net" net ]

let add_routes t ~urgent adds =
  transfer t "add_routes4"
    [ Xrl_atom.boolean "urgent" urgent;
      Xrl_atom.binary "routes" (Route_pack.pack_adds adds) ]

let delete_routes t ~urgent ~protocol nets =
  transfer t "delete_routes4"
    [ Xrl_atom.boolean "urgent" urgent;
      Xrl_atom.txt "protocol" protocol;
      Xrl_atom.binary "routes" (Route_pack.pack_deletes nets) ]

let send_subscribe t policy =
  send t "redist_subscribe"
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
   a reborn FEA). *)
let create router ?(resync = true) ?on_death ?redist ~replay () =
  let t = { router; policies = [] } in
  let replayed =
    Telemetry.counter (Xrl_router.class_name router ^ ".rib_resync.replayed")
  in
  Option.iter (add_redist_handlers router) redist;
  let on_rebirth () =
    List.iter (send_subscribe t) (List.rev t.policies);
    let n = replay () in
    Telemetry.add replayed n;
    Log.info (fun m ->
        m "%s: RIB is back; replayed %d routes"
          (Xrl_router.instance_name router) n)
  in
  Xrl_router.watch_peer router ~cls:"rib" ?on_death
    ?on_rebirth:(if resync then Some on_rebirth else None)
    ();
  t
