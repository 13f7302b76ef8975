let src = Logs.Src.create "xorp.rtrmgr" ~doc:"Router Manager"

module Log = (val Logs.src_log src : Logs.LOG)

type component = [ `Fea | `Rib | `Bgp | `Rip | `Ospf ]

let components = [ `Fea; `Rib; `Bgp; `Rip; `Ospf ]

type knobs = {
  fea_rebirth_replay : bool;
  rib_resync : bool;
  bgp_lane_ordered : bool;
  bgp_redump : bool;
  bgp_inbound_slice : int option;
  bgp_urgent_threshold : int option;
  bgp_deletion_slice : int option;
  dataplane : (string list -> string) option;
}

let default_knobs =
  { fea_rebirth_replay = true; rib_resync = true; bgp_lane_ordered = true;
    bgp_redump = true; bgp_inbound_slice = None; bgp_urgent_threshold = None;
    bgp_deletion_slice = None; dataplane = None }

type t = {
  loop : Eventloop.t;
  net : Netsim.t;
  fndr : Finder.t;
  tel_r : Xrl_router.t;
  (* Creation-time knobs, kept so [restart_component] rebuilds a
     component exactly as [boot] did. *)
  families : Pf.family list option;
  knobs : knobs;
  tel_ns : string; (* ambient telemetry namespace captured at boot *)
  mutable fea_c : Fea.t option;
  mutable rib_c : Rib.t option;
  mutable bgp_c : Bgp_process.t option;
  mutable rip_c : Rip_process.t option;
  mutable ospf_c : Ospf_process.t option;
  cfg : Config_tree.t;
}

let eventloop t = t.loop
let netsim t = t.net
let finder t = t.fndr

let alive name = function
  | Some c -> c
  | None -> failwith ("Rtrmgr: the " ^ name ^ " is down")

let fea t = alive "FEA" t.fea_c
let rib t = alive "RIB" t.rib_c
let fea_opt t = t.fea_c
let rib_opt t = t.rib_c
let bgp t = t.bgp_c
let rip t = t.rip_c
let ospf t = t.ospf_c
let config_text t = Config_tree.render t.cfg

(* Policy attributes hold stack-language source with ';' as the line
   separator (configurations are line-oriented). *)
let compile_policy ~where source =
  let source = String.concat "\n" (String.split_on_char ';' source) in
  match Policy.compile source with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "%s: bad policy: %s" where e)

let leaves_all (cfg : Config_tree.t) name =
  List.filter_map
    (fun (k, v) -> if k = name then Some v else None)
    cfg.Config_tree.leaves

let exception_to_errors f =
  try f () with
  | Failure msg -> Error [ msg ]
  | Invalid_argument msg -> Error [ msg ]

(* --- component configuration ------------------------------------------- *)

let configure_interfaces cfg =
  match Config_tree.path cfg [ "interfaces" ] with
  | None -> []
  | Some ifs ->
    List.map
      (fun (iface : Config_tree.t) ->
         let name = Option.value iface.Config_tree.key ~default:"?" in
         (name, Ipv4.of_string_exn (Config_tree.leaf_exn iface "address")))
      (Config_tree.children ifs "interface")

let configure_static rib_c cfg =
  match Config_tree.path cfg [ "protocols"; "static" ] with
  | None -> Ok ()
  | Some static ->
    List.fold_left
      (fun acc (route : Config_tree.t) ->
         match acc with
         | Error _ as e -> e
         | Ok () ->
           let net =
             Ipv4net.of_string_exn (Option.get route.Config_tree.key)
           in
           let nexthop =
             Ipv4.of_string_exn (Config_tree.leaf_exn route "nexthop")
           in
           let metric =
             match Config_tree.leaf route "metric" with
             | Some m -> int_of_string m
             | None -> 0
           in
           (match
              Rib.add_route rib_c ~protocol:"static" ~net ~nexthop ~metric ()
            with
            | Ok () -> Ok ()
            | Error e -> Error [ "static route: " ^ e ]))
      (Ok ())
      (Config_tree.children static "route")

let configure_bgp ?families ~knobs fndr loop net cfg =
  match Config_tree.path cfg [ "protocols"; "bgp" ] with
  | None -> Ok None
  | Some bgp_cfg ->
    let local_as = int_of_string (Config_tree.leaf_exn bgp_cfg "local-as") in
    let bgp_id = Ipv4.of_string_exn (Config_tree.leaf_exn bgp_cfg "bgp-id") in
    let bgp_c =
      Bgp_process.create ?families
        ?inbound_slice:knobs.bgp_inbound_slice
        ?urgent_threshold:knobs.bgp_urgent_threshold
        ~lane_ordered:knobs.bgp_lane_ordered
        ~rib_rebirth_resync:knobs.rib_resync
        ~redump_on_reestablish:knobs.bgp_redump fndr loop ~netsim:net
        ~local_as ~bgp_id ()
    in
    let peer_result =
      List.fold_left
        (fun acc (peer : Config_tree.t) ->
           match acc with
           | Error _ as e -> e
           | Ok () ->
             let where = Config_tree.node_id peer in
             let peer_addr =
               Ipv4.of_string_exn (Option.get peer.Config_tree.key)
             in
             let local_addr =
               Ipv4.of_string_exn (Config_tree.leaf_exn peer "local-ip")
             in
             let peer_as = int_of_string (Config_tree.leaf_exn peer "as") in
             let base =
               Bgp_process.default_peer_config ~peer_addr ~local_addr ~peer_as
             in
             let policies name =
               match Config_tree.leaf peer name with
               | None -> Ok []
               | Some src ->
                 (match compile_policy ~where src with
                  | Ok p -> Ok [ p ]
                  | Error e -> Error [ e ])
             in
             (match policies "import-policy", policies "export-policy" with
              | Ok import_policies, Ok export_policies ->
                let pc =
                  { base with
                    Bgp_process.hold_time =
                      (match Config_tree.leaf peer "holdtime" with
                       | Some h -> float_of_string h
                       | None -> base.Bgp_process.hold_time);
                    connect_retry =
                      (match Config_tree.leaf peer "connect-retry" with
                       | Some cr -> float_of_string cr
                       | None -> base.Bgp_process.connect_retry);
                    damping =
                      (match Config_tree.leaf peer "damping" with
                       | Some "true" -> Some Bgp_damping.default_params
                       | _ -> None);
                    checking_cache =
                      Config_tree.leaf peer "checking-cache" = Some "true";
                    deletion_slice =
                      Option.value knobs.bgp_deletion_slice
                        ~default:base.Bgp_process.deletion_slice;
                    import_policies;
                    export_policies }
                in
                Bgp_process.add_peer bgp_c pc;
                Ok ()
              | Error e, _ | _, Error e -> Error e))
        (Ok ())
        (Config_tree.children bgp_cfg "peer")
    in
    (match peer_result with
     | Error e ->
       Bgp_process.shutdown bgp_c;
       Error e
     | Ok () ->
       List.iter
         (fun (network : Config_tree.t) ->
            Bgp_process.originate bgp_c
              (Ipv4net.of_string_exn (Option.get network.Config_tree.key)))
         (Config_tree.children bgp_cfg "network");
       Bgp_process.start bgp_c;
       Ok (Some bgp_c))

let configure_rip ?families ~knobs fndr loop cfg =
  match Config_tree.path cfg [ "protocols"; "rip" ] with
  | None -> Ok None
  | Some rip_cfg ->
    let ifaces =
      List.map
        (fun (iface : Config_tree.t) ->
           { Rip_process.if_addr =
               Ipv4.of_string_exn (Option.get iface.Config_tree.key);
             if_neighbors =
               List.map Ipv4.of_string_exn (leaves_all iface "neighbor") })
        (Config_tree.children rip_cfg "interface")
    in
    let base = Rip_process.default_config ~ifaces in
    let config =
      { base with
        Rip_process.update_interval =
          (match Config_tree.leaf rip_cfg "update-interval" with
           | Some v -> float_of_string v
           | None -> base.Rip_process.update_interval);
        timeout =
          (match Config_tree.leaf rip_cfg "timeout" with
           | Some v -> float_of_string v
           | None -> base.Rip_process.timeout) }
    in
    let rip_c =
      Rip_process.create ?families ~rib_rebirth_resync:knobs.rib_resync fndr
        loop config
    in
    List.iter
      (fun (route : Config_tree.t) ->
         let metric =
           match Config_tree.leaf route "metric" with
           | Some m -> int_of_string m
           | None -> 1
         in
         Rip_process.inject rip_c
           ~net:(Ipv4net.of_string_exn (Option.get route.Config_tree.key))
           ~metric ())
      (Config_tree.children rip_cfg "route");
    Rip_process.start rip_c;
    (match Config_tree.leaf rip_cfg "redistribute" with
     | Some src ->
       (match compile_policy ~where:"rip redistribute" src with
        | Ok _ ->
          (* Pass the raw source; the RIB compiles it on subscription. *)
          Rip_process.subscribe_rib_redistribution rip_c
            ~policy:(String.concat "\n" (String.split_on_char ';' src));
          Ok (Some rip_c)
        | Error e ->
          Rip_process.shutdown rip_c;
          Error [ e ])
     | None -> Ok (Some rip_c))

let configure_ospf ?families ~knobs fndr loop cfg =
  match Config_tree.path cfg [ "protocols"; "ospf" ] with
  | None -> Ok None
  | Some ospf_cfg ->
    let router_id =
      Ipv4.of_string_exn (Config_tree.leaf_exn ospf_cfg "router-id")
    in
    let ifaces =
      List.map
        (fun (iface : Config_tree.t) ->
           { Ospf_process.o_addr =
               Ipv4.of_string_exn (Option.get iface.Config_tree.key);
             o_neighbors =
               List.map
                 (fun (n : Config_tree.t) ->
                    { Ospf_process.n_addr =
                        Ipv4.of_string_exn (Option.get n.Config_tree.key);
                      n_id =
                        Ipv4.of_string_exn (Config_tree.leaf_exn n "router-id");
                      n_cost =
                        (match Config_tree.leaf n "cost" with
                         | Some c -> int_of_string c
                         | None -> 1) })
                 (Config_tree.children iface "neighbor") })
        (Config_tree.children ospf_cfg "interface")
    in
    let stub_prefixes =
      List.map
        (fun (s : Config_tree.t) ->
           ( Ipv4net.of_string_exn (Option.get s.Config_tree.key),
             match Config_tree.leaf s "cost" with
             | Some c -> int_of_string c
             | None -> 1 ))
        (Config_tree.children ospf_cfg "stub")
    in
    let base = Ospf_process.default_config ~router_id ~ifaces ~stub_prefixes () in
    let config =
      { base with
        Ospf_process.hello_interval =
          (match Config_tree.leaf ospf_cfg "hello-interval" with
           | Some v -> float_of_string v
           | None -> base.Ospf_process.hello_interval);
        dead_interval =
          (match Config_tree.leaf ospf_cfg "dead-interval" with
           | Some v -> float_of_string v
           | None -> base.Ospf_process.dead_interval) }
    in
    let ospf_c =
      Ospf_process.create ?families ~rib_rebirth_resync:knobs.rib_resync fndr
        loop config
    in
    Ospf_process.start ospf_c;
    Ok (Some ospf_c)

(* --- boot -------------------------------------------------------------------- *)

(* Boot one router's components (FEA, RIB + connected /24s + static
   routes). Factored out of [boot] so [restart_component] can rebuild
   exactly what boot built. *)
let make_fea ?families ~knobs ~interfaces ~net fndr loop =
  let dataplane =
    match knobs.dataplane with
    | Some graph when interfaces <> [] ->
      `Graph (graph (List.map fst interfaces))
    | _ -> `Default
  in
  Fea.create ?families ~interfaces ~netsim:net ~dataplane fndr loop ()

let make_rib ?families ~knobs ~interfaces ~cfg fndr loop =
  let rib_c =
    Rib.create ?families ~fea_rebirth_replay:knobs.fea_rebirth_replay fndr
      loop ()
  in
  (* Connected routes for each interface's /24. *)
  List.iter
    (fun (_, a) ->
       match
         Rib.add_route rib_c ~protocol:"connected"
           ~net:(Ipv4net.make a 24) ~nexthop:Ipv4.zero ()
       with
       | Ok () -> ()
       | Error e -> Log.warn (fun m -> m "connected route: %s" e))
    interfaces;
  match configure_static rib_c cfg with
  | Ok () -> Ok rib_c
  | Error e ->
    Rib.shutdown rib_c;
    Error e

let boot ?loop ?netsim:net ?finder:fndr ?families ?(knobs = default_knobs)
    ~config () =
  let loop = match loop with Some l -> l | None -> Eventloop.create () in
  let net = match net with Some n -> n | None -> Netsim.create loop in
  let fndr = match fndr with Some f -> f | None -> Finder.create () in
  match Config_tree.parse config with
  | Error e -> Error [ e ]
  | Ok cfg ->
    (match Template.validate Template.builtin cfg with
     | Error problems -> Error problems
     | Ok () ->
       exception_to_errors (fun () ->
           (* Telemetry defaults on for a booted router (stage timings,
              trace spans, per-family XRL counters); [telemetry {
              enabled: false }] turns it off for overhead-sensitive
              deployments. *)
           (match Config_tree.path cfg [ "telemetry" ] with
            | Some p when Config_tree.leaf p "enabled" = Some "false" ->
              Telemetry.set_enabled false
            | _ -> Telemetry.set_enabled true);
           let interfaces = configure_interfaces cfg in
           let fea_c = make_fea ?families ~knobs ~interfaces ~net fndr loop in
           match make_rib ?families ~knobs ~interfaces ~cfg fndr loop with
           | Error e ->
             Fea.shutdown fea_c;
             Error e
           | Ok rib_c ->
             (match configure_bgp ?families ~knobs fndr loop net cfg with
              | Error e ->
                Rib.shutdown rib_c;
                Fea.shutdown fea_c;
                Error e
              | Ok bgp_c ->
                (match configure_rip ?families ~knobs fndr loop cfg with
                 | Error e ->
                   Option.iter Bgp_process.shutdown bgp_c;
                   Rib.shutdown rib_c;
                   Fea.shutdown fea_c;
                   Error e
                 | Ok rip_c ->
                   (match configure_ospf ?families ~knobs fndr loop cfg with
                    | Error e ->
                      Option.iter Rip_process.shutdown rip_c;
                      Option.iter Bgp_process.shutdown bgp_c;
                      Rib.shutdown rib_c;
                      Fea.shutdown fea_c;
                      Error e
                    | Ok ospf_c ->
                      (* The telemetry/0.1 service rides its own sole
                         router so xorp_top and call_xrl reach it by
                         class name, like any other component. *)
                      let tel_r = Telemetry_xrl.expose fndr loop in
                      Log.info (fun m -> m "router booted");
                      Ok
                        { loop; net; fndr; tel_r;
                          families; knobs;
                          tel_ns = Telemetry.current_namespace ();
                          fea_c = Some fea_c; rib_c = Some rib_c;
                          bgp_c; rip_c; ospf_c; cfg })))))

(* --- component kill/restart --------------------------------------------- *)

let component_name = function
  | `Fea -> "fea" | `Rib -> "rib" | `Bgp -> "bgp"
  | `Rip -> "rip" | `Ospf -> "ospf"

let kill_component t (comp : component) =
  match comp with
  | `Fea -> Option.iter Fea.shutdown t.fea_c; t.fea_c <- None
  | `Rib -> Option.iter Rib.shutdown t.rib_c; t.rib_c <- None
  | `Bgp -> Option.iter Bgp_process.shutdown t.bgp_c; t.bgp_c <- None
  | `Rip -> Option.iter Rip_process.shutdown t.rip_c; t.rip_c <- None
  | `Ospf -> Option.iter Ospf_process.shutdown t.ospf_c; t.ospf_c <- None

let restart_component t (comp : component) =
  let families = t.families and knobs = t.knobs in
  (* Rebuild under the namespace the router booted with, so the new
     generation's metrics land where the old one's did. *)
  Telemetry.with_namespace t.tel_ns (fun () ->
      let warn = function
        | Ok _ -> ()
        | Error es ->
          Log.warn (fun m ->
              m "restarting %s: %s" (component_name comp)
                (String.concat "; " es))
      in
      match comp with
      | `Fea ->
        if t.fea_c = None then
          t.fea_c <-
            Some
              (make_fea ?families ~knobs
                 ~interfaces:(configure_interfaces t.cfg) ~net:t.net t.fndr
                 t.loop)
      | `Rib ->
        if t.rib_c = None then begin
          match
            make_rib ?families ~knobs
              ~interfaces:(configure_interfaces t.cfg) ~cfg:t.cfg t.fndr t.loop
          with
          | Ok rib_c -> t.rib_c <- Some rib_c
          | Error _ as e -> warn e
        end
      | `Bgp ->
        if t.bgp_c = None then begin
          match configure_bgp ?families ~knobs t.fndr t.loop t.net t.cfg with
          | Ok c -> t.bgp_c <- c
          | Error _ as e -> warn e
        end
      | `Rip ->
        if t.rip_c = None then begin
          match configure_rip ?families ~knobs t.fndr t.loop t.cfg with
          | Ok c -> t.rip_c <- c
          | Error _ as e -> warn e
        end
      | `Ospf ->
        if t.ospf_c = None then begin
          match configure_ospf ?families ~knobs t.fndr t.loop t.cfg with
          | Ok c -> t.ospf_c <- c
          | Error _ as e -> warn e
        end)

(* --- show commands --------------------------------------------------------------- *)

let show_routes t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Destination          Nexthop          Metric Protocol\n";
  Rib.fold_winners (rib t)
    (fun r () ->
       Buffer.add_string buf
         (Printf.sprintf "%-20s %-16s %6d %s\n"
            (Ipv4net.to_string r.Rib_route.net)
            (Ipv4.to_string r.nexthop)
            r.metric r.protocol))
    ();
  Buffer.contents buf

let show_fib t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Destination          Nexthop          Iface Protocol\n";
  List.iter
    (fun (e : Fib.entry) ->
       Buffer.add_string buf
         (Printf.sprintf "%-20s %-16s %-5s %s\n"
            (Ipv4net.to_string e.Fib.net)
            (Ipv4.to_string e.nexthop)
            e.ifname e.protocol))
    (Fib.entries (Fea.fib (fea t)));
  Buffer.contents buf

let show_bgp_peers t =
  match t.bgp_c with
  | None -> "BGP is not configured\n"
  | Some bgp_c ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf "Peer             State        RibIn\n";
    List.iter
      (fun peer ->
         Buffer.add_string buf
           (Printf.sprintf "%-16s %-12s %5d\n" (Ipv4.to_string peer)
              (match Bgp_process.peer_state bgp_c peer with
               | Some st -> Peer_fsm.state_to_string st
               | None -> "?")
              (Bgp_process.ribin_count bgp_c peer)))
      (Bgp_process.peer_addresses bgp_c);
    Buffer.contents buf

let show_rip t =
  match t.rip_c with
  | None -> "RIP is not configured\n"
  | Some rip_c ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf "Destination          Metric Nexthop\n";
    List.iter
      (fun (net, metric, nexthop) ->
         Buffer.add_string buf
           (Printf.sprintf "%-20s %6d %s\n" (Ipv4net.to_string net) metric
              (Ipv4.to_string nexthop)))
      (Rip_process.routes rip_c);
    Buffer.contents buf

let show_ospf t =
  match t.ospf_c with
  | None -> "OSPF is not configured\n"
  | Some ospf_c ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "LSDB: %d LSAs, %d SPF runs\n"
         (Ospf_process.lsdb_size ospf_c)
         (Ospf_process.spf_runs ospf_c));
    Buffer.add_string buf "Destination          Cost Nexthop\n";
    List.iter
      (fun (net, cost, nexthop) ->
         Buffer.add_string buf
           (Printf.sprintf "%-20s %4d %s\n" (Ipv4net.to_string net) cost
              (Ipv4.to_string nexthop)))
      (Ospf_process.route_table ospf_c);
    Buffer.contents buf

let show_dataplane t =
  match Option.map Fea.dataplane t.fea_c with
  | None -> "the FEA is down\n"
  | Some None -> "no data plane (FEA runs without forwarding interfaces)\n"
  | Some (Some dp) -> Dataplane.render dp

let show_telemetry _t = Telemetry.render_table ()

(* The pipeline's staging queues and priority lanes (paper §5.1): the
   BGP inbound backlog, the fanout/RibOut lane splits, and the RIB's
   FEA transmit queue. During a full-table load the bulk figures swell
   while the urgent lanes stay near zero — that gap is the
   head-of-line fix at work. Live depths come from this router's
   components; the lane split from their telemetry gauges. *)
let show_queues t =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let rows =
    Telemetry.list_metrics ()
    |> List.filter_map (fun (name, m) ->
      match m with
      | Telemetry.Gauge g
        when contains name ".lane." || contains name ".backlog"
             || contains name ".fea_q." ->
        Some (name, int_of_float (Telemetry.gauge_value g))
      | _ -> None)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%-34s %8s\n" "Queue" "depth");
  Option.iter
    (fun rib_c ->
       Buffer.add_string buf
         (Printf.sprintf "%-34s %8d\n" "rib.fea_q (live)"
            (Rib.fea_queue_length rib_c)))
    t.rib_c;
  Option.iter
    (fun bgp_c ->
       Buffer.add_string buf
         (Printf.sprintf "%-34s %8d\n" "bgp.inbound (live)"
            (Bgp_process.inbound_backlog bgp_c));
       Buffer.add_string buf
         (Printf.sprintf "%-34s %8d\n" "bgp.fanout (live)"
            (Bgp_process.fanout_queue_length bgp_c)))
    t.bgp_c;
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "%-34s %8d\n" n v))
    rows;
  Buffer.contents buf

let telemetry_router t = t.tel_r

let shutdown t =
  Xrl_router.shutdown t.tel_r;
  Option.iter Ospf_process.shutdown t.ospf_c;
  Option.iter Rip_process.shutdown t.rip_c;
  Option.iter Bgp_process.shutdown t.bgp_c;
  Option.iter Rib.shutdown t.rib_c;
  Option.iter Fea.shutdown t.fea_c;
  t.ospf_c <- None; t.rip_c <- None; t.bgp_c <- None;
  t.rib_c <- None; t.fea_c <- None
