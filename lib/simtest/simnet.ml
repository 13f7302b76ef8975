(* The simulation engine (see simnet.mli).

   Boots one full router stack per topology node — each with its own
   Rtrmgr, Finder, XRL family and telemetry namespace — on one virtual
   clock and one shared Netsim, derives every address from the
   topology's node/link indices, applies scenario ops to the routers
   and links they name, and checks invariants per router and across
   the network. Everything is a function of the master seed. *)

type op =
  | Kill of string * Rtrmgr.component
  | Restart of string * Rtrmgr.component
  | Flap of string
  | Inject of string * int
  | Surge of string * int
  | Link_sever of string * string
  | Link_heal of string * string
  | Link_flap of string * string
  | Delay_burst of float
  | Check

let op_to_string = function
  | Kill (r, c) -> Printf.sprintf "kill %s %s" r (Rtrmgr.component_name c)
  | Restart (r, c) ->
    Printf.sprintf "restart %s %s" r (Rtrmgr.component_name c)
  | Flap r -> "flap " ^ r
  | Inject (r, n) -> Printf.sprintf "inject %s %d" r n
  | Surge (r, n) -> Printf.sprintf "surge %s %d" r n
  | Link_sever (a, b) -> Printf.sprintf "sever %s %s" a b
  | Link_heal (a, b) -> Printf.sprintf "heal %s %s" a b
  | Link_flap (a, b) -> Printf.sprintf "flap %s %s" a b
  | Delay_burst d -> Printf.sprintf "delay-burst %g" d
  | Check -> "check"

type chaos_levels = { dup : float; delay : float; jitter : float }

let calm = { dup = 0.; delay = 0.; jitter = 0. }

(* --- config generation ------------------------------------------------- *)

(* AS plan: every eBGP router gets its own AS; all iBGP routers share
   one. *)
let as_number topo name =
  match Topology.node topo name with
  | Some n when n.Topology.protos.Topology.bgp = Topology.B_ibgp -> 64512
  | _ -> 65001 + Option.value (Topology.node_index topo name) ~default:0

(* Incident links of [name], in canonical link order: (link index,
   own address, peer name, peer address). *)
let incident topo name =
  List.filteri (fun _ (a, b) -> a = name || b = name) topo.Topology.links
  |> List.map (fun ((a, b) as l) ->
         let li = Option.get (Topology.link_index topo l) in
         let a1, a2 = Topology.link_addrs li in
         if a = name then (li, a1, b, a2) else (li, a2, a, a1))

(* Which protocol (if any) originates the router's one prefix. *)
let origination (p : Topology.protos) =
  if p.Topology.bgp <> Topology.B_off then `Bgp
  else if p.Topology.rip then `Rip
  else if p.Topology.ospf then `Ospf
  else `None

let runs_bgp (p : Topology.protos) = p.Topology.bgp <> Topology.B_off

let peer_protos topo peer =
  match Topology.node topo peer with
  | Some n -> n.Topology.protos
  | None -> Topology.no_protos

(* Render the Rtrmgr configuration text of one node. Timers are tuned
   so that a silently severed link is detected well inside the
   convergence window: BGP holds for 30 s and redials every 4 s, RIP
   expires unrefreshed routes after 40 s. *)
let gen_config topo idx (node : Topology.node) =
  let b = Buffer.create 512 in
  let p = node.Topology.protos in
  let name = node.Topology.name in
  let links = incident topo name in
  let origin = Ipv4net.to_string (Topology.origin_prefix idx) in
  Buffer.add_string b "interfaces {\n";
  List.iteri
    (fun k (_, own, _, _) ->
      Printf.bprintf b "    interface eth%d { address: %s }\n" k
        (Ipv4.to_string own))
    links;
  Buffer.add_string b "}\nprotocols {\n";
  (* iBGP nexthops are the originators' router ids (their sim
     addresses), which no connected subnet covers; a static /32 per
     iBGP neighbour stands in for the IGP that would make them
     resolvable in a real deployment. *)
  let ibgp_statics =
    if p.Topology.bgp <> Topology.B_ibgp then []
    else
      List.filter_map
        (fun (_, _, peer, peer_addr) ->
          match Topology.node topo peer with
          | Some pn when pn.Topology.protos.Topology.bgp = Topology.B_ibgp ->
            let pidx = Option.get (Topology.node_index topo peer) in
            Some
              (Printf.sprintf "        route %s/32 { nexthop: %s }"
                 (Ipv4.to_string (Topology.sim_addr pidx))
                 (Ipv4.to_string peer_addr))
          | _ -> None)
        links
  in
  if ibgp_statics <> [] then begin
    Buffer.add_string b "    static {\n";
    List.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n')
      ibgp_statics;
    Buffer.add_string b "    }\n"
  end;
  if runs_bgp p then begin
    Buffer.add_string b "    bgp {\n";
    Printf.bprintf b "        local-as: %d\n" (as_number topo name);
    Printf.bprintf b "        bgp-id: %s\n"
      (Ipv4.to_string (Topology.sim_addr idx));
    if origination p = `Bgp then
      Printf.bprintf b "        network %s { }\n" origin;
    List.iter
      (fun (_, own, peer, peer_addr) ->
        if runs_bgp (peer_protos topo peer) then
          Printf.bprintf b
            "        peer %s { as: %d local-ip: %s holdtime: 30 \
             connect-retry: 4 }\n"
            (Ipv4.to_string peer_addr) (as_number topo peer)
            (Ipv4.to_string own))
      links;
    Buffer.add_string b "    }\n"
  end;
  if p.Topology.rip then begin
    Buffer.add_string b "    rip {\n";
    Buffer.add_string b "        update-interval: 12\n";
    Buffer.add_string b "        timeout: 40\n";
    List.iter
      (fun (_, own, peer, peer_addr) ->
        if (peer_protos topo peer).Topology.rip then
          Printf.bprintf b "        interface %s { neighbor: %s }\n"
            (Ipv4.to_string own) (Ipv4.to_string peer_addr))
      links;
    if origination p = `Rip then
      Printf.bprintf b "        route %s { metric: 1 }\n" origin;
    Buffer.add_string b "    }\n"
  end;
  if p.Topology.ospf then begin
    Buffer.add_string b "    ospf {\n";
    Printf.bprintf b "        router-id: %s\n"
      (Ipv4.to_string (Topology.sim_addr idx));
    List.iter
      (fun (_, own, peer, peer_addr) ->
        if (peer_protos topo peer).Topology.ospf then begin
          let pidx = Option.get (Topology.node_index topo peer) in
          Printf.bprintf b "        interface %s {\n" (Ipv4.to_string own);
          Printf.bprintf b "            neighbor %s { router-id: %s }\n"
            (Ipv4.to_string peer_addr)
            (Ipv4.to_string (Topology.sim_addr pidx));
          Buffer.add_string b "        }\n"
        end)
      links;
    if origination p = `Ospf then
      Printf.bprintf b "        stub %s { cost: 1 }\n" origin;
    Buffer.add_string b "    }\n"
  end;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- the world --------------------------------------------------------- *)

type router = {
  r_name : string;
  r_idx : int;
  r_protos : Topology.protos;
  r_mgr : Rtrmgr.t;
}

type t = {
  topo : Topology.t;
  loop : Eventloop.t;
  netsim : Netsim.t;
  routers : router array;
  by_name : (string, int) Hashtbl.t;
  (* interface address (as int) -> (owning router index, link). *)
  addr_owner : (int, int * Topology.link) Hashtbl.t;
  cuts : (Topology.link, unit) Hashtbl.t;
  chaos_cfg : Pf_chaos.config;
  background : chaos_levels;
  lat_max : float ref;
  feed_rng : Rng.t;
  injected : (Ipv4net.t, unit) Hashtbl.t;
  log_trace : bool;
  trace : Buffer.t;
  mutable violations : string list;
  mutable repaired : bool;
}

(* Decorrelate the sub-streams of one master seed; splitmix behind
   Rng.create takes care of avalanche. *)
let substream seed salt = Rng.create ((seed * 0x1F123BB5) lxor salt)

let tr w fmt =
  Printf.ksprintf
    (fun s ->
      let line = Printf.sprintf "%10.3f  %s" (Eventloop.now w.loop) s in
      Buffer.add_string w.trace line;
      Buffer.add_char w.trace '\n';
      if w.log_trace then prerr_endline line)
    fmt

let violation w fmt =
  Printf.ksprintf
    (fun s ->
      w.violations <- w.violations @ [ s ];
      tr w "VIOLATION: %s" s)
    fmt

let spawn ?(seed = 0) ?(background = calm) ?(xrl_latency = 0.) ?knobs
    ?(log_trace = false) topo =
  Telemetry.reset ();
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let tb_rng = substream seed 0x7E13 in
  Eventloop.set_tie_break loop (Some (fun n -> Rng.int tb_rng n));
  let lat_rng = substream seed 0x1A7E in
  let lat_max = ref xrl_latency in
  let latency () =
    if !lat_max <= 0. then 0. else Rng.float lat_rng *. !lat_max
  in
  let chaos_cfg =
    Pf_chaos.config ~dup_prob:background.dup ~delay:background.delay
      ~delay_jitter:background.jitter ()
  in
  let routers =
    Array.of_list
      (List.mapi
         (fun idx (node : Topology.node) ->
           let name = node.Topology.name in
           (* Per-router namespace: every metric a component registers
              while booting lands under "<name>.". *)
           Telemetry.with_namespace (name ^ ".") (fun () ->
               let sim_fam =
                 Pf_sim.family ~latency netsim
                   ~local_addr:(Topology.sim_addr idx)
               in
               let fam =
                 Pf_chaos.wrap
                   ~rng:(substream seed (0xC4A0 lxor (idx * 0x01000193)))
                   ~seed:(seed + idx) ~config:chaos_cfg sim_fam
               in
               let finder = Finder.create ~seed:(seed lxor (0x3D0 + idx)) () in
               match
                 Rtrmgr.boot ~loop ~netsim ~finder ~families:[ fam ] ?knobs
                   ~config:(gen_config topo idx node) ()
               with
               | Ok mgr ->
                 { r_name = name; r_idx = idx; r_protos = node.Topology.protos;
                   r_mgr = mgr }
               | Error problems ->
                 failwith
                   (Printf.sprintf "simnet: %s config rejected: %s" name
                      (String.concat "; " problems))))
         topo.Topology.nodes)
  in
  let by_name = Hashtbl.create 16 in
  Array.iter (fun r -> Hashtbl.replace by_name r.r_name r.r_idx) routers;
  let addr_owner = Hashtbl.create 64 in
  List.iteri
    (fun li ((a, b) as l) ->
      let a1, a2 = Topology.link_addrs li in
      Hashtbl.replace addr_owner (Ipv4.to_int a1)
        (Hashtbl.find by_name a, l);
      Hashtbl.replace addr_owner (Ipv4.to_int a2)
        (Hashtbl.find by_name b, l))
    topo.Topology.links;
  let w =
    { topo; loop; netsim; routers; by_name; addr_owner;
      cuts = Hashtbl.create 8; chaos_cfg; background; lat_max;
      feed_rng = substream seed 0xFEED; injected = Hashtbl.create 64;
      log_trace; trace = Buffer.create 4096; violations = [];
      repaired = false }
  in
  Array.iter
    (fun r ->
      tr w "booted %s (protocols=%s)" r.r_name
        (Topology.protos_to_string r.r_protos))
    routers;
  tr w "topology: %d routers, %d links" (Array.length routers)
    (List.length topo.Topology.links);
  w

let eventloop w = w.loop

let router w name =
  Option.map (fun i -> w.routers.(i)) (Hashtbl.find_opt w.by_name name)

(* --- events ------------------------------------------------------------ *)

let link_endpoints w a b =
  match Topology.link_index w.topo (a, b) with
  | None -> None
  | Some li -> Some (Topology.link_addrs li)

let do_sever w a b ~reset =
  match link_endpoints w a b with
  | None -> tr w "sever %s %s: no such link" a b
  | Some (a1, a2) ->
    Hashtbl.replace w.cuts
      (if String.compare a b <= 0 then (a, b) else (b, a))
      ();
    Netsim.cut_link ~reset w.netsim ~a:a1 ~b:a2

let do_heal w a b =
  match link_endpoints w a b with
  | None -> tr w "heal %s %s: no such link" a b
  | Some (a1, a2) ->
    Hashtbl.remove w.cuts
      (if String.compare a b <= 0 then (a, b) else (b, a));
    Netsim.heal_link w.netsim ~a:a1 ~b:a2

(* A fresh /24 for the feed ops, drawn from the feed stream and never
   handed out twice in one run. *)
let fresh_prefix w =
  let rec draw tries =
    if tries > 1000 then failwith "simnet: prefix space exhausted";
    let n =
      Ipv4net.of_string_exn
        (Printf.sprintf "130.%d.%d.0/24"
           (Rng.int w.feed_rng 256) (Rng.int w.feed_rng 256))
    in
    if Hashtbl.mem w.injected n then draw (tries + 1)
    else begin
      Hashtbl.replace w.injected n ();
      n
    end
  in
  draw 0

(* Withdraw the router's origin prefix from the protocol that
   originates it; re-add it 2 s later to whichever instance is then
   alive. *)
let flap_origin w r =
  let m = r.r_mgr and p = Topology.origin_prefix r.r_idx in
  let bounce get withdraw readd =
    match get m with
    | None -> tr w "flap %s: its origin protocol is down" r.r_name
    | Some c ->
      tr w "flap %s: withdraw %s" r.r_name (Ipv4net.to_string p);
      withdraw c p;
      ignore
        (Eventloop.after w.loop 2.0 (fun () ->
             Option.iter (fun c -> readd c p) (get m)))
  in
  match origination r.r_protos with
  | `Bgp -> bounce Rtrmgr.bgp Bgp_process.withdraw Bgp_process.originate
  | `Rip ->
    bounce Rtrmgr.rip Rip_process.retract (fun c net ->
        Rip_process.inject c ~net ())
  | `Ospf ->
    bounce Rtrmgr.ospf Ospf_process.remove_stub (fun c net ->
        Ospf_process.add_stub c net 1)
  | `None -> tr w "flap %s: originates nothing" r.r_name

let surge w r bgp n =
  let nets = List.init n (fun _ -> fresh_prefix w) in
  List.iter (Bgp_process.originate bgp) nets;
  (* Two loop iterations later — after this router's RibOut has flushed
     the surge UPDATE, but in the same virtual instant — withdraw the
     last surged prefix and originate three more. At each receiver the
     surge is staged; the chaser lands right behind it, so the last add
     drains with a 4-deep tail (bulk lane) while the withdrawal drains
     moments later from the nearly empty queue (urgent lane). The
     §5.1.2 per-prefix guard is what keeps that urgent withdrawal
     behind the very bulk add it must not overtake. *)
  match List.rev nets with
  | last :: _ ->
    Eventloop.defer w.loop (fun () ->
        Eventloop.defer w.loop (fun () ->
            match Rtrmgr.bgp r.r_mgr with
            | Some bgp ->
              tr w "surge chaser: withdraw %s +3" (Ipv4net.to_string last);
              Bgp_process.withdraw bgp last;
              for _ = 1 to 3 do
                Bgp_process.originate bgp (fresh_prefix w)
              done
            | None -> ()))
  | [] -> ()

let exec w op =
  tr w "event: %s" (op_to_string op);
  let on_router name k =
    match router w name with
    | Some r -> k r
    | None -> tr w "no router %s" name
  in
  let on_bgp name k =
    on_router name (fun r ->
        match Rtrmgr.bgp r.r_mgr with
        | Some bgp -> k r bgp
        | None -> tr w "%s runs no live BGP" name)
  in
  match op with
  | Kill (r, c) -> on_router r (fun r -> Rtrmgr.kill_component r.r_mgr c)
  | Restart (r, c) ->
    on_router r (fun r -> Rtrmgr.restart_component r.r_mgr c)
  | Flap r -> on_router r (flap_origin w)
  | Inject (r, n) ->
    on_bgp r (fun _ bgp ->
        for _ = 1 to n do
          Bgp_process.originate bgp (fresh_prefix w)
        done)
  | Surge (r, n) -> on_bgp r (fun r bgp -> surge w r bgp n)
  | Link_sever (a, b) -> do_sever w a b ~reset:false
  | Link_heal (a, b) -> do_heal w a b
  | Link_flap (a, b) ->
    (* A detectable bounce: interfaces drop (both sides see the reset),
       the wire returns two seconds later. *)
    do_sever w a b ~reset:true;
    ignore
      (Eventloop.after w.loop 2.0 (fun () ->
           tr w "flap %s %s: link back up" a b;
           do_heal w a b))
  | Delay_burst dur ->
    w.chaos_cfg.Pf_chaos.delay <- 0.05;
    w.chaos_cfg.Pf_chaos.delay_jitter <- 0.05;
    ignore
      (Eventloop.after w.loop dur (fun () ->
           if w.repaired then begin
             w.chaos_cfg.Pf_chaos.delay <- 0.;
             w.chaos_cfg.Pf_chaos.delay_jitter <- 0.
           end
           else begin
             w.chaos_cfg.Pf_chaos.delay <- w.background.delay;
             w.chaos_cfg.Pf_chaos.delay_jitter <- w.background.jitter
           end;
           tr w "delay burst over"))
  | Check -> ()

(* --- convergence ------------------------------------------------------- *)

let router_pending r =
  let m = r.r_mgr in
  let p f = function Some c -> Xrl_router.pending_sends (f c) | None -> 0 in
  p Fea.xrl_router (Rtrmgr.fea_opt m)
  + p Rib.xrl_router (Rtrmgr.rib_opt m)
  + p Bgp_process.xrl_router (Rtrmgr.bgp m)
  + p Rip_process.xrl_router (Rtrmgr.rip m)
  + p Ospf_process.xrl_router (Rtrmgr.ospf m)
  + Xrl_router.pending_sends (Rtrmgr.telemetry_router m)

let pending w =
  Array.fold_left (fun acc r -> acc + router_pending r) 0 w.routers

let router_signature r =
  let m = r.r_mgr in
  let rib_n = match Rtrmgr.rib_opt m with
    | Some c -> Rib.route_count c | None -> -1 in
  let fib_n = match Rtrmgr.fea_opt m with
    | Some f -> Fib.size (Fea.fib f) | None -> -1 in
  let bgp_n, est = match Rtrmgr.bgp m with
    | Some c -> (Bgp_process.route_count c, Bgp_process.established_count c)
    | None -> (-1, -1) in
  let rip_n = match Rtrmgr.rip m with
    | Some c -> Rip_process.route_count c | None -> -1 in
  let ospf_n = match Rtrmgr.ospf m with
    | Some c -> List.length (Ospf_process.route_table c) | None -> -1 in
  Printf.sprintf "%s:%d,%d,%d,%d,%d,%d" r.r_name rib_n fib_n bgp_n est rip_n
    ospf_n

let signature w =
  Array.to_list w.routers |> List.map router_signature |> String.concat " "

(* Quiescence means: every router's table counts have been stable
   across a window longer than any periodic refresh and no XRL is
   unsettled. Bounded, because a diverged network may still be
   churning. The default step is deliberately not a multiple of the
   protocols' timer grid: OSPF hellos fire at exact multiples of 5 s,
   and [run_until_time] dispatches timers due exactly at its target
   before stopping — sampling at aligned instants would always catch a
   freshly transmitted hello as an unsettled send. Returns whether the
   network converged and the virtual time of the last observed change,
   which the convergence benchmark reports as session settle. *)
let converge ?(step = 9.7) ?(needed = 5) ?(max_steps = 90) w =
  let last_change = ref (Eventloop.now w.loop) in
  let rec go n stable last =
    Eventloop.run_until_time w.loop (Eventloop.now w.loop +. step);
    let s = signature w in
    let quiet = s = last && pending w = 0 in
    if not quiet then last_change := Eventloop.now w.loop;
    let stable = if quiet then stable + 1 else 0 in
    if stable >= needed then true
    else if n >= max_steps then begin
      violation w "no convergence after %.0f s (signature %s)"
        (float_of_int max_steps *. step) s;
      false
    end
    else go (n + 1) stable s
  in
  let ok = go 0 0 "" in
  (ok, !last_change)

(* --- invariants -------------------------------------------------------- *)

(* Forwarding-plane invariant: at a quiescent point, the element graph
   must agree with [Fib.lookup] packet for packet, and so must the data
   plane's own [Fib.forward] on each probed address. Probes are injected
   through the real ingress path and intercepted at ToNetsim with an
   absorbing tx hook, so they never reach the shared netsim and cannot
   disturb the protocol sessions. The scheduler chain drains on
   deferred events, so [run_until_idle] is enough to flush each probe
   without advancing the clock. *)
let check_dataplane w ~fail fea dp =
  let fail fmt = Printf.ksprintf fail fmt in
  let fib = Fea.fib fea in
  let exits = ref [] in
  Dataplane.set_tx_hook dp
    (Some
       (fun pkt ->
         exits :=
           (pkt.Packet.out_ifname, pkt.Packet.nexthop, pkt.Packet.ttl)
           :: !exits;
         `Absorb));
  let probe ?(ttl = 64) dst =
    exits := [];
    (match
       Dataplane.inject dp ~ifname:"eth0"
         (Packet.make ~ttl ~src:(Ipv4.of_string_exn "10.0.0.7") ~dst ())
     with
     | Ok () -> ()
     | Error e -> fail "probe inject failed: %s" e);
    Eventloop.run_until_idle w.loop;
    !exits
  in
  let forward_agrees dst =
    let same =
      match Fib.lookup fib dst, Fib.forward fib dst with
      | None, None -> true
      | Some hit, Some r ->
        Ipv4.equal r.Dataplane.lr_nexthop hit.Fib.nexthop
        && String.equal r.Dataplane.lr_ifname hit.Fib.ifname
        && r.Dataplane.lr_connected = String.equal hit.Fib.protocol "connected"
      | _ -> false
    in
    if not same then
      fail "Fib.forward and Fib.lookup disagree on %s" (Ipv4.to_string dst)
  in
  let probeable (e : Fib.entry) =
    let dst = Ipv4net.first_addr e.Fib.net in
    if Ipv4.equal dst Ipv4.zero || Ipv4.is_multicast dst then None
    else Some dst
  in
  let entries = Fib.entries fib in
  (* One probe per FIB entry would dominate the run on big tables;
     a bounded deterministic sample catches the same bug classes. *)
  let sample = List.filteri (fun i _ -> i < 16) entries in
  List.iter
    (fun (e : Fib.entry) ->
      match probeable e with
      | None -> ()
      | Some dst -> (
        forward_agrees dst;
        match Fib.lookup fib dst with
        | None ->
          fail "%s is in the FIB but lookup misses it"
            (Ipv4net.to_string e.Fib.net)
        | Some hit -> (
          match probe dst with
          | [ (ifname, nexthop, ttl) ] ->
            let expect_nh =
              if
                String.equal hit.Fib.protocol "connected"
                || Ipv4.equal hit.Fib.nexthop Ipv4.zero
              then dst
              else hit.Fib.nexthop
            in
            if not (Ipv4.equal nexthop expect_nh) then
              fail "probe %s exited toward %s, FIB says %s"
                (Ipv4.to_string dst) (Ipv4.to_string nexthop)
                (Ipv4.to_string expect_nh);
            if hit.Fib.ifname <> "" && not (String.equal ifname hit.Fib.ifname)
            then
              fail "probe %s exited on %S, FIB says %S" (Ipv4.to_string dst)
                ifname hit.Fib.ifname;
            if ttl <> 63 then
              fail "probe %s exited with TTL %d (expected 63)"
                (Ipv4.to_string dst) ttl
          | [] ->
            fail "probe %s never exited, but the FIB routes it via %s"
              (Ipv4.to_string dst)
              (Ipv4.to_string hit.Fib.nexthop)
          | l ->
            fail "probe %s exited %d times" (Ipv4.to_string dst)
              (List.length l))))
    sample;
  (* A destination with no route must be dropped, not forwarded. *)
  let dark = Ipv4.of_string_exn "203.0.113.77" in
  forward_agrees dark;
  (match Fib.lookup fib dark with
   | Some _ -> ()
   | None ->
     if probe dark <> [] then
       fail "probe %s exited despite having no route" (Ipv4.to_string dark));
  (* TTL death: an expiring packet must be dropped inside the graph and
     the drop must be visible in the element counters. *)
  (match List.find_map probeable entries with
   | None -> ()
   | Some dst ->
     let ttl_drops () =
       List.fold_left
         (fun acc s ->
           acc
           + (match List.assoc_opt "ttl-expired" s.Dataplane.st_drops with
              | Some n -> n
              | None -> 0))
         0 (Dataplane.stats dp)
     in
     let before = ttl_drops () in
     (match probe ~ttl:1 dst with
      | [] ->
        if ttl_drops () <> before + 1 then
          fail "TTL-expired probe for %s dropped but not counted"
            (Ipv4.to_string dst)
      | _ ->
        fail "TTL-expired probe for %s exited the router"
          (Ipv4.to_string dst)));
  Dataplane.set_tx_hook dp None

(* Per-router: RIB/FIB agreement, stale survivors, local loop-freedom,
   per-protocol origin counts, transport telemetry and the data plane
   — against this router's tables only. *)
let check_router w ~tag r =
  let m = r.r_mgr in
  let fail fmt =
    Printf.ksprintf (fun s -> violation w "%s: %s: %s" tag r.r_name s) fmt
  in
  (match (Rtrmgr.rib_opt m, Rtrmgr.fea_opt m) with
   | Some rib, Some fea ->
     let fib = Fea.fib fea in
     let missing =
       Rib.fold_winners rib
         (fun rt acc ->
           match Fib.get fib rt.Rib_route.net with
           | Some e when Ipv4.equal e.Fib.nexthop rt.Rib_route.nexthop -> acc
           | Some e ->
             fail "FIB nexthop for %s is %s, RIB says %s"
               (Ipv4net.to_string rt.Rib_route.net)
               (Ipv4.to_string e.Fib.nexthop)
               (Ipv4.to_string rt.Rib_route.nexthop);
             acc
           | None -> rt.Rib_route.net :: acc)
         []
     in
     List.iter
       (fun n -> fail "RIB winner %s missing from FIB" (Ipv4net.to_string n))
       missing;
     let rib_n = Rib.route_count rib and fib_n = Fib.size fib in
     if rib_n <> fib_n then
       fail "RIB has %d winners but FIB has %d entries" rib_n fib_n;
     (* The reverse direction, named: a FIB entry with no RIB winner is
        a stale survivor — the signature of a route withdrawn while the
        RIB was down that nobody swept after its restart. *)
     let winners = Hashtbl.create 64 in
     Rib.fold_winners rib
       (fun rt () -> Hashtbl.replace winners rt.Rib_route.net ())
       ();
     List.iter
       (fun (e : Fib.entry) ->
         if not (Hashtbl.mem winners e.Fib.net) then
           fail "FIB entry %s (%s) has no RIB winner — stale survivor"
             (Ipv4net.to_string e.Fib.net)
             e.Fib.protocol)
       (Fib.entries fib);
     (* Local loop-freedom: nexthop resolution inside this FIB must
        bottom out on a connected subnet. iBGP winners resolve through
        the static /32s toward their originator's router id. *)
     List.iter
       (fun (e : Fib.entry) ->
         let rec walk hop addr =
           if hop > 32 then
             fail "forwarding loop resolving %s (via %s)"
               (Ipv4net.to_string e.Fib.net)
               (Ipv4.to_string e.Fib.nexthop)
           else
             match Fib.lookup fib addr with
             | None ->
               fail "nexthop %s of %s is unroutable" (Ipv4.to_string addr)
                 (Ipv4net.to_string e.Fib.net)
             | Some hit ->
               if not (String.equal hit.Fib.protocol "connected") then
                 walk (hop + 1) hit.Fib.nexthop
         in
         if not (String.equal e.Fib.protocol "connected") then
           walk 0 e.Fib.nexthop)
       (Fib.entries fib)
   | _ -> ());
  (match (Rtrmgr.rib_opt m, Rtrmgr.bgp m) with
   | Some rib, Some bgp ->
     (* BGP's rib branch skips peer-0 winners, so the networks a router
        originates itself — configured or injected — live in its BGP
        tables but never in its own RIB. *)
     let b =
       Bgp_process.fold_winners bgp
         (fun rt n -> if rt.Bgp_types.peer_id <> 0 then n + 1 else n)
         0
     and o =
       Rib.origin_route_count rib "ebgp" + Rib.origin_route_count rib "ibgp"
     in
     if b <> o then
       fail "BGP holds %d peer-learned winners but RIB ebgp+ibgp origin \
             has %d" b o
   | _ -> ());
  (match (Rtrmgr.rib_opt m, Rtrmgr.rip m) with
   | Some rib, Some rip ->
     (* Same asymmetry as BGP: a locally injected RIP route (rsrc
        zero) is advertised to neighbours but never sent to the own
        RIB. *)
     let own = if origination r.r_protos = `Rip then 1 else 0 in
     let n = Rip_process.route_count rip - own
     and o = Rib.origin_route_count rib "rip" in
     if n <> o then
       fail "RIP holds %d wire-learned routes but RIB rip origin has %d" n o
   | _ -> ());
  (match (Rtrmgr.rib_opt m, Rtrmgr.ospf m) with
   | Some rib, Some ospf ->
     let n = List.length (Ospf_process.route_table ospf)
     and o = Rib.origin_route_count rib "ospf" in
     if n <> o then fail "OSPF holds %d routes but RIB ospf origin has %d" n o
   | _ -> ());
  (* Per-router transport telemetry, read from this router's
     namespace: the sim family cannot dispatch more than was sent. *)
  let ns_counter metric =
    match Telemetry.find_metric (r.r_name ^ "." ^ metric) with
    | Some (Telemetry.Counter c) -> Telemetry.counter_value c
    | _ -> 0
  in
  let tx = ns_counter "xrl.sim.requests_tx"
  and rx = ns_counter "xrl.sim.requests_rx" in
  if rx > tx then
    fail "sim transport dispatched %d requests but sent %d" rx tx;
  match Rtrmgr.fea_opt m with
  | Some fea ->
    Option.iter
      (check_dataplane w ~fail:(fun s -> fail "dataplane: %s" s) fea)
      (Fea.dataplane fea)
  | None -> ()

(* The routers a protocol's origin prefix must reach. RIP and OSPF
   propagate transitively (full-table updates, LSA flooding), so their
   reach is the origin's connected component in the protocol subgraph.
   BGP reaches everything in the BGP subgraph except across two
   consecutive iBGP hops (no iBGP-to-iBGP re-advertisement), which the
   BFS tracks as per-node arrival state. *)
let up_links w =
  List.filter
    (fun l -> not (Hashtbl.mem w.cuts l))
    w.topo.Topology.links

let proto_component w ~runs origin_idx =
  let n = Array.length w.routers in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      let ia = Hashtbl.find w.by_name a and ib = Hashtbl.find w.by_name b in
      if runs w.routers.(ia).r_protos && runs w.routers.(ib).r_protos then begin
        adj.(ia) <- ib :: adj.(ia);
        adj.(ib) <- ia :: adj.(ib)
      end)
    (up_links w);
  let seen = Array.make n false in
  let q = Queue.create () in
  seen.(origin_idx) <- true;
  Queue.push origin_idx q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.push v q
        end)
      adj.(u)
  done;
  seen

(* BGP reach with the iBGP relay rule, plus hop distances (used for
   the hop-optimality check on pure-eBGP topologies, where AS-path
   length equals router hops). *)
let bgp_reach w origin_idx =
  let n = Array.length w.routers in
  let is_ibgp i = w.routers.(i).r_protos.Topology.bgp = Topology.B_ibgp in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      let ia = Hashtbl.find w.by_name a and ib = Hashtbl.find w.by_name b in
      if runs_bgp w.routers.(ia).r_protos && runs_bgp w.routers.(ib).r_protos
      then begin
        let ibgp = is_ibgp ia && is_ibgp ib in
        adj.(ia) <- (ib, ibgp) :: adj.(ia);
        adj.(ib) <- (ia, ibgp) :: adj.(ib)
      end)
    (up_links w);
  (* State: (node, arrived-over-iBGP?). *)
  let dist = Array.make (n * 2) max_int in
  let q = Queue.create () in
  let push st d = if dist.(st) < max_int then () else begin
    dist.(st) <- d; Queue.push st q end
  in
  List.iter
    (fun (v, ibgp) -> push ((v * 2) + Bool.to_int ibgp) 1)
    adj.(origin_idx);
  while not (Queue.is_empty q) do
    let st = Queue.pop q in
    let u = st / 2 and via_ibgp = st mod 2 = 1 in
    List.iter
      (fun (v, ibgp) ->
        if not (via_ibgp && ibgp) then
          push ((v * 2) + Bool.to_int ibgp) (dist.(st) + 1))
      adj.(u)
  done;
  Array.init n (fun i ->
      let d = min dist.(i * 2) dist.((i * 2) + 1) in
      if i = origin_idx then Some 0 else if d = max_int then None else Some d)

(* Resolve prefix [p] in router [xi]'s FIB down to the exit interface
   address of a directly linked neighbour. *)
let next_router w xi p =
  match Rtrmgr.fea_opt w.routers.(xi).r_mgr with
  | None -> `NoFea
  | Some fea ->
    let fib = Fea.fib fea in
    (match Fib.get fib p with
     | None -> `NoRoute
     | Some e ->
       let rec resolve hop nh =
         if hop > 8 then `Unresolvable nh
         else
           match Fib.lookup fib nh with
           | None -> `Unresolvable nh
           | Some f ->
             if String.equal f.Fib.protocol "connected" then `Exit nh
             else resolve (hop + 1) f.Fib.nexthop
       in
       resolve 0 e.Fib.nexthop)

(* Follow [p] router to router until it lands on its originator;
   returns the hop count. *)
let walk_to_origin w ~tag src_idx origin_idx p =
  let n = Array.length w.routers in
  let pname i = w.routers.(i).r_name in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        violation w "%s: forwarding %s from %s: %s" tag (Ipv4net.to_string p)
          (pname src_idx) s)
      fmt
  in
  let rec go xi hops =
    if xi = origin_idx then Some hops
    else if hops > (2 * n) + 8 then begin
      fail "forwarding loop (no arrival after %d hops)" hops;
      None
    end
    else
      match next_router w xi p with
      | `NoFea -> None (* not judgeable *)
      | `NoRoute ->
        fail "dead end at %s (no route)" (pname xi);
        None
      | `Unresolvable nh ->
        fail "dead end at %s (nexthop %s unresolvable)" (pname xi)
          (Ipv4.to_string nh);
        None
      | `Exit nh -> (
        match Hashtbl.find_opt w.addr_owner (Ipv4.to_int nh) with
        | None ->
          fail "at %s exits toward %s, which is no router interface"
            (pname xi) (Ipv4.to_string nh);
          None
        | Some (owner, link) ->
          if Hashtbl.mem w.cuts link then begin
            fail "at %s exits over the cut link %s-%s" (pname xi) (fst link)
              (snd link);
            None
          end
          else if owner = xi then begin
            fail "at %s exits toward its own interface %s" (pname xi)
              (Ipv4.to_string nh);
            None
          end
          else go owner (hops + 1))
  in
  go src_idx 0

let all_alive w =
  Array.for_all
    (fun r ->
      Rtrmgr.fea_opt r.r_mgr <> None
      && Rtrmgr.rib_opt r.r_mgr <> None
      && (not (runs_bgp r.r_protos) || Rtrmgr.bgp r.r_mgr <> None)
      && ((not r.r_protos.Topology.rip) || Rtrmgr.rip r.r_mgr <> None)
      && ((not r.r_protos.Topology.ospf) || Rtrmgr.ospf r.r_mgr <> None))
    w.routers

let pure_ebgp w =
  Array.for_all
    (fun r ->
      r.r_protos.Topology.bgp = Topology.B_ebgp
      && (not r.r_protos.Topology.rip)
      && not r.r_protos.Topology.ospf)
    w.routers

(* Network-wide checks: run only when every component is up and no
   link is cut — mid-fault states are legitimately inconsistent. *)
let check_network w ~tag =
  let fail fmt = Printf.ksprintf (fun s -> violation w "%s: %s" tag s) fmt in
  let n = Array.length w.routers in
  let idx_of name = Hashtbl.find w.by_name name in
  (* Every configured BGP session over an up link is established. *)
  let bgp_degree = Array.make n 0 in
  List.iter
    (fun (a, b) ->
      let ia = idx_of a and ib = idx_of b in
      if runs_bgp w.routers.(ia).r_protos && runs_bgp w.routers.(ib).r_protos
      then begin
        bgp_degree.(ia) <- bgp_degree.(ia) + 1;
        bgp_degree.(ib) <- bgp_degree.(ib) + 1
      end)
    (up_links w);
  Array.iter
    (fun r ->
      match Rtrmgr.bgp r.r_mgr with
      | Some bgp ->
        let est = Bgp_process.established_count bgp in
        if est <> bgp_degree.(r.r_idx) then
          fail "%s has %d established BGP sessions, topology says %d"
            r.r_name est bgp_degree.(r.r_idx)
      | None -> ())
    w.routers;
  (* Reachability, forwarding termination and hop-optimality, one
     origin prefix at a time. *)
  let hop_check = pure_ebgp w in
  Array.iter
    (fun (origin : router) ->
      let oi = origin.r_idx in
      let p = Topology.origin_prefix oi in
      let expected =
        match origination origin.r_protos with
        | `None -> Array.make n false
        | `Bgp -> Array.map (fun d -> d <> None) (bgp_reach w oi)
        | `Rip ->
          proto_component w ~runs:(fun pr -> pr.Topology.rip) oi
        | `Ospf ->
          proto_component w ~runs:(fun pr -> pr.Topology.ospf) oi
      in
      let dists =
        if hop_check then bgp_reach w oi else Array.make n None
      in
      Array.iter
        (fun (r : router) ->
          if r.r_idx <> oi then begin
            match Rtrmgr.fea_opt r.r_mgr with
            | None -> ()
            | Some fea ->
              let have = Fib.get (Fea.fib fea) p <> None in
              if expected.(r.r_idx) && not have then
                fail "%s should reach %s (origin %s) but has no route"
                  r.r_name (Ipv4net.to_string p) origin.r_name
              else if have then begin
                match walk_to_origin w ~tag r.r_idx oi p with
                | Some hops when hop_check -> (
                  match dists.(r.r_idx) with
                  | Some d when d <> hops ->
                    fail
                      "%s forwards %s to %s in %d hops; shortest path is %d"
                      r.r_name (Ipv4net.to_string p) origin.r_name hops d
                  | _ -> ())
                | _ -> ()
              end
          end)
        w.routers)
    w.routers

let check_all w ~tag =
  Array.iter (fun r -> check_router w ~tag r) w.routers;
  let p = pending w in
  if p <> 0 then
    violation w "%s: %d XRL sends still unsettled" tag p;
  if Hashtbl.length w.cuts = 0 && all_alive w then check_network w ~tag
  else tr w "%s: network-wide checks skipped (faults outstanding)" tag;
  tr w "%s: invariants checked (%s)" tag (signature w)

(* --- repair, teardown, runner ------------------------------------------ *)

let repair w =
  w.repaired <- true;
  w.chaos_cfg.Pf_chaos.dup_prob <- 0.;
  w.chaos_cfg.Pf_chaos.delay <- 0.;
  w.chaos_cfg.Pf_chaos.delay_jitter <- 0.;
  w.lat_max := 0.;
  let cut = Hashtbl.fold (fun l () acc -> l :: acc) w.cuts [] in
  List.iter (fun (a, b) -> do_heal w a b) (List.sort compare cut);
  Array.iter
    (fun r -> List.iter (Rtrmgr.restart_component r.r_mgr) Rtrmgr.components)
    w.routers;
  tr w "repaired: chaos off, links healed, all components up"

let teardown w =
  tr w "teardown";
  Array.iter (fun r -> Rtrmgr.shutdown r.r_mgr) w.routers;
  Eventloop.set_tie_break w.loop None;
  (* Drain: everything already scheduled must either fire and not
     re-arm, or have been cancelled by the shutdowns above. *)
  let bail = Eventloop.now w.loop +. 900. in
  let rec drain () =
    if
      (Eventloop.live_timers w.loop > 0 || Eventloop.live_tasks w.loop > 0)
      && Eventloop.now w.loop < bail
    then begin
      Eventloop.run_until_time w.loop (Eventloop.now w.loop +. 60.);
      drain ()
    end
  in
  drain ();
  let timers = Eventloop.live_timers w.loop in
  if timers <> 0 then
    violation w "teardown: %d timers leaked after shutdown" timers;
  let tasks = Eventloop.live_tasks w.loop in
  if tasks <> 0 then
    violation w "teardown: %d background tasks leaked after shutdown" tasks

let violations w = w.violations
let trace w = Buffer.contents w.trace
