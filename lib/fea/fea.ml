let src = Logs.Src.create "xorp.fea" ~doc:"Forwarding Engine Abstraction"

module Log = (val Logs.src_log src : Logs.LOG)

let pp_kernel = "fea_kernel"
let pp_arrived = "fea_arrived"

(* The UDP port the element-graph data plane sends and receives on —
   our stand-in for "raw IP" between routers (RIP owns 520, BGP 179). *)
let dataplane_port = 4

type relay_socket = {
  sockid : int;
  client_target : string;
  dgram : Netsim.Dgram.socket;
}

type t = {
  router : Xrl_router.t;
  fib : Fib.t;
  clock : unit -> float; (* the loop's clock, for spans and points *)
  pt_arrived : Telemetry.Profile.point;
  pt_kernel : Telemetry.Profile.point;
  ifaces : (string * Ipv4.t) list;
  netsim : Netsim.t option;
  sockets : (int, relay_socket) Hashtbl.t;
  client_watches : (string, unit) Hashtbl.t;
  mutable next_sockid : int;
  mutable installed : int;
  mutable dataplane : Dataplane.t option;
  mutable dp_socks : (string * Netsim.Dgram.socket) list;
  (* RIB graceful restart (mark and sweep): a route withdrawn while
     the RIB is down is never deleted from the FIB by anyone — the
     reborn RIB starts empty and only protocol replays reach it, so
     the withdrawal is simply gone. On RIB rebirth every FIB entry is
     marked stale; (re)installs unmark; whatever is still marked when
     the hold timer fires was not re-announced and is swept. *)
  stale : (Ipv4net.t, unit) Hashtbl.t;
  mutable sweep_timer : Eventloop.timer option;
  swept : Telemetry.counter;
  lookups_control : Telemetry.counter;
  lookups_dataplane : Telemetry.counter;
}

(* How long a reborn RIB gets to repopulate the FIB before unconfirmed
   entries are swept. Generous against converge-time replay (protocol
   replays land within a few virtual seconds) yet well inside the
   simulation harness's quiescence window. *)
let rib_sweep_hold = 30.0

let fib t = t.fib
let xrl_router t = t.router
let interfaces t = t.ifaces
let routes_installed t = t.installed
let dataplane t = t.dataplane

let ok = Xrl_error.Ok_xrl

let add_fib_handlers t =
  let r = t.router in
  (* Resolved here (boot time) rather than per call, so a multi-router
     process records each FEA's installs under its own namespace. *)
  let install_hist = Telemetry.histogram "fea.install.latency_us" in
  (* One XRL carries a Route_pack-packed run, of one route or many.
     Profile points, the install histogram and a delete's miss are
     still per route, so the pipeline-latency methodology (§8.2) sees
     every route. *)
  Xrl_router.add_handler r ~interface:"fea" ~method_name:"add_routes4"
    (fun args reply ->
       let packed = Xrl_atom.get_binary args "routes" in
       match Route_pack.unpack_adds packed with
       | Error msg -> reply (Xrl_error.Bad_args ("routes: " ^ msg)) []
       | Ok adds ->
         Telemetry.Trace.span_sync ~name:"fea.install_bulk"
           ~note:
             (Telemetry.Trace.run_note (fun (a : Route_pack.add) -> a.net) adds)
           ~clock:t.clock
           (fun () ->
              List.iter
                (fun { Route_pack.net; nexthop; ifname; protocol; metric = _ } ->
                   Telemetry.Profile.record t.pt_arrived ~clock:t.clock Add
                     net;
                   Telemetry.time install_hist (fun () ->
                       Fib.add t.fib { Fib.net; nexthop; ifname; protocol };
                       Hashtbl.remove t.stale net;
                       t.installed <- t.installed + 1);
                   Telemetry.Profile.record t.pt_kernel ~clock:t.clock Add
                     net)
                adds);
         reply ok [ Xrl_atom.u32 "count" (List.length adds) ]);
  (* A prefix with no FIB entry does not stop the run: the rest is
     applied, and the reply says how many missed. *)
  Xrl_router.add_handler r ~interface:"fea" ~method_name:"delete_routes4"
    (fun args reply ->
       let packed = Xrl_atom.get_binary args "routes" in
       match Route_pack.unpack_deletes packed with
       | Error msg -> reply (Xrl_error.Bad_args ("routes: " ^ msg)) []
       | Ok nets ->
         let n = List.length nets in
         let missed = ref 0 in
         Telemetry.Trace.span_sync ~name:"fea.uninstall_bulk"
           ~note:(Telemetry.Trace.run_note Fun.id nets) ~clock:t.clock
           (fun () ->
              List.iter
                (fun net ->
                   Telemetry.Profile.record t.pt_arrived ~clock:t.clock
                     Delete net;
                   let existed =
                     Telemetry.time install_hist (fun () ->
                         Hashtbl.remove t.stale net;
                         Fib.delete t.fib net)
                   in
                   if not existed then incr missed;
                   Telemetry.Profile.record t.pt_kernel ~clock:t.clock
                     Delete net)
                nets);
         if !missed = 0 then reply ok [ Xrl_atom.u32 "count" n ]
         else
           reply
             (Xrl_error.Command_failed
                (Printf.sprintf "no FIB entry for %d/%d routes" !missed n))
             []);
  Xrl_router.add_handler r ~interface:"fea" ~method_name:"lookup_route4"
    (fun args reply ->
       let addr = Xrl_atom.get_ipv4 args "addr" in
       Telemetry.incr t.lookups_control;
       match Fib.lookup t.fib addr with
       | Some e ->
         reply ok
           [ Xrl_atom.ipv4net "net" e.Fib.net;
             Xrl_atom.ipv4 "nexthop" e.Fib.nexthop;
             Xrl_atom.txt "ifname" e.Fib.ifname ]
       | None ->
         reply
           (Xrl_error.Command_failed
              ("no route to " ^ Ipv4.to_string addr))
           []);
  Xrl_router.add_handler r ~interface:"fea" ~method_name:"get_fib_size"
    (fun _ reply -> reply ok [ Xrl_atom.u32 "size" (Fib.size t.fib) ]);
  Xrl_router.add_handler r ~interface:"fea" ~method_name:"get_interfaces"
    (fun _ reply ->
       let vals =
         List.concat_map
           (fun (name, a) ->
              [ Xrl_atom.Txt name; Xrl_atom.Txt (Ipv4.to_string a) ])
           t.ifaces
       in
       reply ok [ Xrl_atom.list "interfaces" vals ])

let deliver_to_client t sock ~src:srcaddr ~sport payload =
  let xrl =
    Xrl.make ~target:sock.client_target ~interface:"fea_client"
      ~method_name:"recv"
      [ Xrl_atom.u32 "sockid" sock.sockid;
        Xrl_atom.ipv4 "src" srcaddr;
        Xrl_atom.u32 "sport" sport;
        Xrl_atom.binary "payload" payload ]
  in
  Xrl_router.send t.router xrl (fun err _ ->
      if not (Xrl_error.is_ok err) then
        Log.warn (fun m ->
            m "udp relay delivery to %s failed: %s" sock.client_target
              (Xrl_error.to_string err)))

(* Client targets are instance names ("rip-3"). *)
let client_class client_target =
  match String.rindex_opt client_target '-' with
  | Some i -> String.sub client_target 0 i
  | None -> client_target

(* Close a dead client's relay sockets (§6.2 lifetime notification):
   the address/port stays bound by the old instance otherwise, so a
   restarted RIP/OSPF could never re-open it. We watch the client's
   class; once none of it is live, every socket it opened is stale. *)
let watch_relay_client t client_target =
  let class_name = client_class client_target in
  if not (Hashtbl.mem t.client_watches class_name) then begin
    Hashtbl.replace t.client_watches class_name ();
    Xrl_router.watch_peer t.router ~cls:class_name
      ~on_death:(fun () ->
          let stale =
            Hashtbl.fold
              (fun id s acc ->
                 if String.equal (client_class s.client_target) class_name then
                   (id, s) :: acc
                 else acc)
              t.sockets []
          in
          List.iter
            (fun (id, s) ->
               Log.info (fun m ->
                   m "closing relay socket %d of dead client %s" id
                     s.client_target);
               Netsim.Dgram.close s.dgram;
               Hashtbl.remove t.sockets id)
            stale)
      ()
  end

let add_udp_handlers t =
  let r = t.router in
  Xrl_router.add_handler r ~interface:"fea_udp" ~method_name:"udp_open"
    (fun args reply ->
       let client_target = Xrl_atom.get_txt args "client_target" in
       let addr = Xrl_atom.get_ipv4 args "addr" in
       let port = Xrl_atom.get_u32 args "port" in
       match t.netsim with
       | None -> reply (Xrl_error.Command_failed "FEA has no data plane") []
       | Some net ->
         if not (List.exists (fun (_, a) -> Ipv4.equal a addr) t.ifaces) then
           reply
             (Xrl_error.Command_failed
                (Ipv4.to_string addr ^ " is not a local interface address"))
             []
         else begin
           match Netsim.Dgram.bind net ~addr ~port with
           | dgram ->
             t.next_sockid <- t.next_sockid + 1;
             let sock = { sockid = t.next_sockid; client_target; dgram } in
             Hashtbl.replace t.sockets sock.sockid sock;
             watch_relay_client t client_target;
             Netsim.Dgram.on_receive dgram (fun ~src ~sport payload ->
                 deliver_to_client t sock ~src ~sport payload);
             reply ok [ Xrl_atom.u32 "sockid" sock.sockid ]
           | exception Invalid_argument msg ->
             reply (Xrl_error.Command_failed msg) []
         end);
  Xrl_router.add_handler r ~interface:"fea_udp" ~method_name:"udp_send"
    (fun args reply ->
       let sockid = Xrl_atom.get_u32 args "sockid" in
       let dst = Xrl_atom.get_ipv4 args "dst" in
       let dport = Xrl_atom.get_u32 args "dport" in
       let payload = Xrl_atom.get_binary args "payload" in
       match Hashtbl.find_opt t.sockets sockid with
       | None ->
         reply
           (Xrl_error.Command_failed (Printf.sprintf "no socket %d" sockid))
           []
       | Some sock ->
         Netsim.Dgram.sendto sock.dgram ~dst ~dport payload;
         reply ok []);
  Xrl_router.add_handler r ~interface:"fea_udp" ~method_name:"udp_close"
    (fun args reply ->
       let sockid = Xrl_atom.get_u32 args "sockid" in
       match Hashtbl.find_opt t.sockets sockid with
       | None ->
         reply
           (Xrl_error.Command_failed (Printf.sprintf "no socket %d" sockid))
           []
       | Some sock ->
         Netsim.Dgram.close sock.dgram;
         Hashtbl.remove t.sockets sockid;
         reply ok [])

(* ------------------------------------------------------------------ *)
(* Element-graph data plane (paper §5 extensibility, below the
   control plane). The FEA owns the ingress/egress sockets — one per
   interface on [dataplane_port] — so the element graph can be
   replaced at runtime without rebinding anything. *)

let dp_tx t ~ifname ~dst payload =
  let sock =
    match List.assoc_opt ifname t.dp_socks with
    | Some s -> Some s
    | None -> (
        (* The route carried no interface name: fall back to the
           interface whose /24 contains the next hop, else the first. *)
        let on_link (name, _) =
          match List.assoc_opt name t.ifaces with
          | Some addr -> Ipv4net.contains_addr (Ipv4net.make addr 24) dst
          | None -> false
        in
        match List.find_opt on_link t.dp_socks with
        | Some (_, s) -> Some s
        | None -> ( match t.dp_socks with (_, s) :: _ -> Some s | [] -> None))
  in
  match sock with
  | Some s -> Netsim.Dgram.sendto s ~dst ~dport:dataplane_port payload
  | None -> ()

let setup_dataplane t net ~config =
  let lookup addr =
    Telemetry.incr t.lookups_dataplane;
    Fib.forward t.fib addr
  in
  let dp =
    Dataplane.create
      ~loop:(Xrl_router.eventloop t.router)
      ~lookup
      ~tx:(fun ~ifname ~dst payload -> dp_tx t ~ifname ~dst payload)
      ~ifaces:(List.map fst t.ifaces) ()
  in
  t.dp_socks <-
    List.filter_map
      (fun (ifname, addr) ->
         match Netsim.Dgram.bind net ~addr ~port:dataplane_port with
         | sock ->
           Netsim.Dgram.on_receive sock (fun ~src:_ ~sport:_ payload ->
               match t.dataplane with
               | Some dp -> Dataplane.rx dp ~ifname payload
               | None -> ());
           Some (ifname, sock)
         | exception Invalid_argument msg ->
           Log.warn (fun m ->
               m "data plane: cannot bind %s:%d on %s: %s"
                 (Ipv4.to_string addr) dataplane_port ifname msg);
           None)
      t.ifaces;
  (match Dataplane.install_config dp config with
   | Ok () -> ()
   | Error e -> failwith ("dataplane graph rejected: " ^ e));
  t.dataplane <- Some dp

let add_dataplane_handlers t =
  let r = t.router in
  let add = Xrl_router.add_handler r ~interface:"dataplane" ~version:"0.1" in
  let with_dp reply f =
    match t.dataplane with
    | None -> reply (Xrl_error.Command_failed "FEA has no data plane") []
    | Some dp -> f dp
  in
  add ~method_name:"install_graph" (fun args reply ->
      with_dp reply (fun dp ->
          let config = Xrl_atom.get_txt args "config" in
          match Dataplane.install_config dp config with
          | Ok () ->
            reply ok
              [ Xrl_atom.u32 "elements" (Dataplane.element_count dp) ]
          | Error e -> reply (Xrl_error.Command_failed e) []));
  add ~method_name:"get_graph" (fun _ reply ->
      with_dp reply (fun dp ->
          reply ok [ Xrl_atom.txt "config" (Dataplane.config dp) ]));
  add ~method_name:"list_elements" (fun _ reply ->
      with_dp reply (fun dp ->
          let vals =
            List.map
              (fun s ->
                 Xrl_atom.Txt
                   (Printf.sprintf "%s|%s|%d|%d" s.Dataplane.st_name
                      s.Dataplane.st_klass s.Dataplane.st_rx
                      s.Dataplane.st_tx))
              (Dataplane.stats dp)
          in
          reply ok [ Xrl_atom.list "elements" vals ]));
  add ~method_name:"get_counters" (fun args reply ->
      with_dp reply (fun dp ->
          let name = Xrl_atom.get_txt args "name" in
          match
            List.find_opt
              (fun s -> String.equal s.Dataplane.st_name name)
              (Dataplane.stats dp)
          with
          | None ->
            reply (Xrl_error.Command_failed ("no element " ^ name)) []
          | Some s ->
            reply ok
              [ Xrl_atom.txt "klass" s.Dataplane.st_klass;
                Xrl_atom.u32 "rx" s.Dataplane.st_rx;
                Xrl_atom.u32 "tx" s.Dataplane.st_tx;
                Xrl_atom.list "drops"
                  (List.map
                     (fun (reason, n) ->
                        Xrl_atom.Txt (Printf.sprintf "%s|%d" reason n))
                     s.Dataplane.st_drops) ]));
  add ~method_name:"insert_element" (fun args reply ->
      with_dp reply (fun dp ->
          let name = Xrl_atom.get_txt args "name" in
          let klass = Xrl_atom.get_txt args "klass" in
          let after = Xrl_atom.get_txt args "after" in
          let dp_args =
            match Xrl_atom.find args "config" with
            | Some { value = Txt s; _ } when String.trim s <> "" ->
              List.map String.trim (String.split_on_char ',' s)
            | _ -> []
          in
          let port =
            match Xrl_atom.find args "port" with
            | Some { value = U32 p; _ } -> p
            | _ -> 0
          in
          match
            Dataplane.insert_element dp ~name ~klass ~args:dp_args ~after
              ~port
          with
          | Ok () -> reply ok []
          | Error e -> reply (Xrl_error.Command_failed e) []));
  add ~method_name:"remove_element" (fun args reply ->
      with_dp reply (fun dp ->
          let name = Xrl_atom.get_txt args "name" in
          match Dataplane.remove_element dp ~name with
          | Ok () -> reply ok []
          | Error e -> reply (Xrl_error.Command_failed e) []))

(* Mark-and-sweep across a RIB restart. The replay direction (each
   protocol re-announcing into the reborn RIB) restores routes that
   still exist; this is the other half: routes that stopped existing
   while the RIB was down would survive in the FIB forever, because no
   live component remembers them. Snapshot the FIB as "stale" when the
   new RIB registers — the rebirth turn comes before any install the
   newborn sends, since deferred callbacks run in FIFO order; everything
   it re-installs within the hold is unmarked; the remainder is swept.
   An FEA born before the RIB (the boot order) snapshots nothing and
   arms no timer. *)
let rib_reborn t =
  Hashtbl.reset t.stale;
  List.iter
    (fun (e : Fib.entry) -> Hashtbl.replace t.stale e.Fib.net ())
    (Fib.entries t.fib);
  Option.iter Eventloop.cancel t.sweep_timer;
  t.sweep_timer <- None;
  if Hashtbl.length t.stale > 0 then
    t.sweep_timer <-
      Some
        (Eventloop.after (Xrl_router.eventloop t.router) rib_sweep_hold
           (fun () ->
              t.sweep_timer <- None;
              let n =
                Hashtbl.fold
                  (fun net () n -> if Fib.delete t.fib net then n + 1 else n)
                  t.stale 0
              in
              Hashtbl.reset t.stale;
              if n > 0 then begin
                Telemetry.add t.swept n;
                Log.info (fun m ->
                    m "RIB restart sweep: %d unconfirmed FIB entries removed"
                      n)
              end))

let create ?families ?(interfaces = []) ?netsim
    ?(dataplane = `Default) finder loop () =
  (* A fresh generation starts its metric namespace from zero, so a
     restarted FEA does not inherit the dead instance's counts. *)
  Telemetry.reset_prefix "fea.";
  let router =
    Xrl_router.create ?families finder loop ~class_name:"fea" ~sole:true ()
  in
  let t =
    { router; fib = Fib.create (); clock = (fun () -> Eventloop.now loop);
      pt_arrived = Telemetry.Profile.point pp_arrived;
      pt_kernel = Telemetry.Profile.point pp_kernel;
      ifaces = interfaces; netsim;
      sockets = Hashtbl.create 8; client_watches = Hashtbl.create 4;
      next_sockid = 0; installed = 0; dataplane = None; dp_socks = [];
      stale = Hashtbl.create 64; sweep_timer = None;
      swept = Telemetry.counter "fea.rib_sweep.removed";
      lookups_control = Telemetry.counter "fea.lookups.control";
      lookups_dataplane = Telemetry.counter "fea.lookups.dataplane" }
  in
  add_fib_handlers t;
  add_udp_handlers t;
  add_dataplane_handlers t;
  Xrl_router.watch_peer router ~cls:"rib" ~on_rebirth:(fun () -> rib_reborn t)
    ();
  (match (netsim, dataplane) with
   | Some net, `Default when interfaces <> [] ->
     setup_dataplane t net
       ~config:(Dataplane.default_config ~ifaces:(List.map fst interfaces))
   | Some net, `Graph config -> setup_dataplane t net ~config
   | _ -> ());
  t

let shutdown t =
  Option.iter Eventloop.cancel t.sweep_timer;
  t.sweep_timer <- None;
  Hashtbl.iter (fun _ sock -> Netsim.Dgram.close sock.dgram) t.sockets;
  Hashtbl.reset t.sockets;
  (match t.dataplane with Some dp -> Dataplane.shutdown dp | None -> ());
  List.iter (fun (_, sock) -> Netsim.Dgram.close sock) t.dp_socks;
  t.dp_socks <- [];
  t.dataplane <- None;
  Xrl_router.shutdown t.router
