(* Deterministic whole-router simulation harness (see simtest.mli).

   Everything an execution does is a function of the scenario's master
   seed: the seed derives separate PRNG streams for transport chaos,
   XRL virtual latency, timer tie-breaks and feed content; the Finders
   get seeded method keys; and the clock is virtual. Two runs of the
   same scenario in the same process therefore produce byte-identical
   traces — which is what makes a fuzzed counterexample replayable
   from one integer. *)

(* --- scenarios --------------------------------------------------------- *)

type component = C_fea | C_rib | C_bgp | C_rip | C_ospf

type source = S_bgp | S_rip | S_ospf

type op =
  | Kill of component
  | Restart of component
  | Flap of source
  | Inject of int
  | Surge of int
  | Sever
  | Delay_burst of float
  | Check
  (* Topology-scenario ops: these address routers and links of the
     scenario's topology by name; in the fixed three-peer world they
     are ignored. *)
  | Kill_in of string * component
  | Restart_in of string * component
  | Link_sever of string * string
  | Link_heal of string * string
  | Link_flap of string * string

type event = { at : float; op : op }

type chaos_levels = { dup : float; delay : float; jitter : float }

type scenario = {
  seed : int;
  background : chaos_levels;
  xrl_latency : float;
  events : event list;
  horizon : float;
  topology : Topology.t option;
}

let calm = { dup = 0.; delay = 0.; jitter = 0. }

let kill_at at c = { at; op = Kill c }
let restart_at at c = { at; op = Restart c }
let flap_at at s = { at; op = Flap s }
let inject_routes at n = { at; op = Inject n }
let surge_at at n = { at; op = Surge n }
let partition at = { at; op = Sever }
let delay_burst_at at ~dur = { at; op = Delay_burst dur }
let check_at at = { at; op = Check }
let kill_in_at at r c = { at; op = Kill_in (r, c) }
let restart_in_at at r c = { at; op = Restart_in (r, c) }
let sever_link_at at a b = { at; op = Link_sever (a, b) }
let heal_link_at at a b = { at; op = Link_heal (a, b) }
let flap_link_at at a b = { at; op = Link_flap (a, b) }

let sort_events evs =
  List.stable_sort (fun a b -> compare a.at b.at) evs

let scenario ?(seed = 0) ?(background = calm) ?(xrl_latency = 0.)
    ?(horizon = 120.) ?topology events =
  { seed; background; xrl_latency; events = sort_events events; horizon;
    topology }

let component_name = function
  | C_fea -> "fea" | C_rib -> "rib" | C_bgp -> "bgp"
  | C_rip -> "rip" | C_ospf -> "ospf"

let component_of_name = function
  | "fea" -> Some C_fea | "rib" -> Some C_rib | "bgp" -> Some C_bgp
  | "rip" -> Some C_rip | "ospf" -> Some C_ospf | _ -> None

let source_name = function S_bgp -> "bgp" | S_rip -> "rip" | S_ospf -> "ospf"

let source_of_name = function
  | "bgp" -> Some S_bgp | "rip" -> Some S_rip | "ospf" -> Some S_ospf
  | _ -> None

let op_to_string = function
  | Kill c -> "kill " ^ component_name c
  | Restart c -> "restart " ^ component_name c
  | Flap s -> "flap " ^ source_name s
  | Inject n -> Printf.sprintf "inject %d" n
  | Surge n -> Printf.sprintf "surge %d" n
  | Sever -> "sever"
  | Delay_burst d -> Printf.sprintf "delay-burst %g" d
  | Check -> "check"
  | Kill_in (r, c) -> Printf.sprintf "kill %s %s" r (component_name c)
  | Restart_in (r, c) -> Printf.sprintf "restart %s %s" r (component_name c)
  | Link_sever (a, b) -> Printf.sprintf "sever %s %s" a b
  | Link_heal (a, b) -> Printf.sprintf "heal %s %s" a b
  | Link_flap (a, b) -> Printf.sprintf "flap %s %s" a b

let to_string sc =
  let b = Buffer.create 256 in
  Printf.bprintf b "seed %d\n" sc.seed;
  Printf.bprintf b "horizon %g\n" sc.horizon;
  Option.iter (fun t -> Buffer.add_string b (Topology.to_string t)) sc.topology;
  if sc.background.dup > 0. then Printf.bprintf b "dup %g\n" sc.background.dup;
  if sc.background.delay > 0. then
    Printf.bprintf b "delay %g\n" sc.background.delay;
  if sc.background.jitter > 0. then
    Printf.bprintf b "jitter %g\n" sc.background.jitter;
  if sc.xrl_latency > 0. then
    Printf.bprintf b "latency %g\n" sc.xrl_latency;
  List.iter
    (fun ev -> Printf.bprintf b "at %g %s\n" ev.at (op_to_string ev.op))
    sc.events;
  Buffer.contents b

let of_string text =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let sc =
    ref { seed = 0; background = calm; xrl_latency = 0.; events = [];
          horizon = 120.; topology = None }
  in
  let topo_lines = ref [] in
  let rec go = function
    | [] -> (
      let s = !sc in
      let s = { s with events = sort_events (List.rev s.events) } in
      match !topo_lines with
      | [] -> Ok s
      | lines -> (
        match Topology.of_string (String.concat "\n" (List.rev lines)) with
        | Ok t -> Ok { s with topology = Some t }
        | Error e -> Error e))
    | line :: rest -> (
      let words =
        String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
      in
      let float_arg s k =
        match float_of_string_opt s with
        | Some f -> k f
        | None -> err "bad number %S in %S" s line
      in
      match words with
      | ("router" | "link" | "topology") :: _ ->
        topo_lines := line :: !topo_lines;
        go rest
      | [ "seed"; v ] -> (
        match int_of_string_opt v with
        | Some i -> sc := { !sc with seed = i }; go rest
        | None -> err "bad seed %S" v)
      | [ "horizon"; v ] ->
        float_arg v (fun f -> sc := { !sc with horizon = f }; go rest)
      | [ "dup"; v ] ->
        float_arg v (fun f ->
            let s = !sc in
            sc := { s with background = { s.background with dup = f } };
            go rest)
      | [ "delay"; v ] ->
        float_arg v (fun f ->
            let s = !sc in
            sc := { s with background = { s.background with delay = f } };
            go rest)
      | [ "jitter"; v ] ->
        float_arg v (fun f ->
            let s = !sc in
            sc := { s with background = { s.background with jitter = f } };
            go rest)
      | [ "latency"; v ] ->
        float_arg v (fun f -> sc := { !sc with xrl_latency = f }; go rest)
      | "at" :: t :: opw -> (
        float_arg t (fun at ->
            let add op =
              let s = !sc in
              sc := { s with events = { at; op } :: s.events };
              go rest
            in
            match opw with
            | [ "kill"; c ] -> (
              match component_of_name c with
              | Some c -> add (Kill c)
              | None -> err "unknown component %S" c)
            | [ "restart"; c ] -> (
              match component_of_name c with
              | Some c -> add (Restart c)
              | None -> err "unknown component %S" c)
            | [ "kill"; r; c ] -> (
              match component_of_name c with
              | Some c -> add (Kill_in (r, c))
              | None -> err "unknown component %S" c)
            | [ "restart"; r; c ] -> (
              match component_of_name c with
              | Some c -> add (Restart_in (r, c))
              | None -> err "unknown component %S" c)
            | [ "flap"; s ] -> (
              match source_of_name s with
              | Some s -> add (Flap s)
              | None -> err "unknown source %S" s)
            | [ "flap"; a; b ] -> add (Link_flap (a, b))
            | [ "sever"; a; b ] -> add (Link_sever (a, b))
            | [ "heal"; a; b ] -> add (Link_heal (a, b))
            | [ "inject"; n ] -> (
              match int_of_string_opt n with
              | Some n -> add (Inject n)
              | None -> err "bad count %S" n)
            | [ "surge"; n ] -> (
              match int_of_string_opt n with
              | Some n -> add (Surge n)
              | None -> err "bad count %S" n)
            | [ "sever" ] -> add Sever
            | [ "delay-burst"; d ] -> (
              match float_of_string_opt d with
              | Some d -> add (Delay_burst d)
              | None -> err "bad duration %S" d)
            | [ "check" ] -> add Check
            | _ -> err "cannot parse op in %S" line))
      | _ -> err "cannot parse line %S" line)
  in
  go lines

(* --- seed streams ------------------------------------------------------ *)

(* Decorrelate the sub-streams of one master seed; splitmix behind
   Rng.create takes care of avalanche. *)
let substream seed salt = Rng.create ((seed * 0x1F123BB5) lxor salt)

(* --- the world --------------------------------------------------------- *)

let ip = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* The device under test owns 10.0.0.1 (eBGP toward the ISP at
   10.0.0.9), 10.0.1.1 (OSPF toward 10.0.1.2) and 10.0.2.1 (RIP toward
   10.0.2.2). Its XRL plane runs over simulated streams on 10.99.0.1. *)
let dut_ifaces =
  [ ("eth0", ip "10.0.0.1"); ("eth1", ip "10.0.1.1"); ("eth2", ip "10.0.2.1") ]

let connected_nets =
  [ (net "10.0.0.0/24", ip "10.0.0.1");
    (net "10.0.1.0/24", ip "10.0.1.1");
    (net "10.0.2.0/24", ip "10.0.2.1") ]

let isp_nets =
  Array.init 8 (fun i -> net (Printf.sprintf "128.%d.0.0/16" (16 + i)))

let legacy_nets =
  Array.init 4 (fun i -> net (Printf.sprintf "192.168.%d.0/24" i))

let stub_nets =
  Array.init 4 (fun i -> net (Printf.sprintf "172.%d.0.0/16" (20 + i)))

let isp_config =
  let nets =
    Array.to_list isp_nets
    |> List.map (fun n ->
           Printf.sprintf "        network %s { }" (Ipv4net.to_string n))
    |> String.concat "\n"
  in
  Printf.sprintf
    {|
interfaces {
    interface eth0 { address: 10.0.0.9 }
}
protocols {
    bgp {
        local-as: 65100
        bgp-id: 9.9.9.9
%s
        peer 10.0.0.1 { as: 65001 local-ip: 10.0.0.9 }
    }
}
|}
    nets

let neighbor_config =
  let stubs =
    Array.to_list stub_nets
    |> List.map (fun n ->
           Printf.sprintf "        stub %s { cost: 1 }" (Ipv4net.to_string n))
    |> String.concat "\n"
  in
  Printf.sprintf
    {|
interfaces {
    interface eth0 { address: 10.0.1.2 }
}
protocols {
    ospf {
        router-id: 2.2.2.2
        interface 10.0.1.2 {
            neighbor 10.0.1.1 { router-id: 1.1.1.1 }
        }
%s
    }
}
|}
    stubs

let legacy_config =
  let routes =
    Array.to_list legacy_nets
    |> List.map (fun n ->
           Printf.sprintf "        route %s { metric: 1 }" (Ipv4net.to_string n))
    |> String.concat "\n"
  in
  Printf.sprintf
    {|
interfaces {
    interface eth0 { address: 10.0.2.2 }
}
protocols {
    rip {
        interface 10.0.2.2 { neighbor: 10.0.2.1 }
%s
    }
}
|}
    routes

type opts = {
  fea_rebirth_replay : bool;
  dataplane_ttl_leak : bool;
  bgp_lane_unordered : bool;
  rib_resync : bool;
  bgp_redump : bool;
  log_trace : bool;
}

let default_opts =
  { fea_rebirth_replay = true; dataplane_ttl_leak = false;
    bgp_lane_unordered = false; rib_resync = true; bgp_redump = true;
    log_trace = false }

(* The known-bad element class for [dataplane_ttl_leak]: decrements the
   TTL like DecTtl but forgets to kill expired packets, so a TTL that
   reaches zero leaks out of the router. The forwarding invariant must
   catch it. *)
let () =
  Dataplane.register_map_class "LeakDecTtl"
    ~check:(function [] -> Ok () | _ -> Error "takes no arguments")
    ~make:(fun ~args:_ ~n_out:_ pkt ->
      pkt.Packet.ttl <- pkt.Packet.ttl - 1;
      Dataplane.Emit 0)

(* [default_config] with DecTtl swapped for the leaky variant. *)
let leaky_dataplane_config ~ifaces =
  Dataplane.default_config ~ifaces
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         if String.equal (String.trim line) "ttl :: DecTtl" then
           "ttl :: LeakDecTtl"
         else line)
  |> String.concat "\n"

type world = {
  loop : Eventloop.t;
  netsim : Netsim.t;
  finder : Finder.t;
  families : Pf.family list;
  chaos_cfg : Pf_chaos.config;
  background : chaos_levels;
  lat_max : float ref;
  killer : Xrl_router.t;
  mutable fea : Fea.t option;
  mutable rib : Rib.t option;
  mutable bgp : Bgp_process.t option;
  mutable rip : Rip_process.t option;
  mutable ospf : Ospf_process.t option;
  isp : Rtrmgr.t;
  neighbor : Rtrmgr.t;
  legacy : Rtrmgr.t;
  feed_rng : Rng.t;
  injected : (Ipv4net.t, unit) Hashtbl.t;
  trace : Buffer.t;
  mutable violations : string list;
  mutable repaired : bool;
  opts : opts;
}

let tr w fmt =
  Printf.ksprintf
    (fun s ->
       let line = Printf.sprintf "%10.3f  %s" (Eventloop.now w.loop) s in
       Buffer.add_string w.trace line;
       Buffer.add_char w.trace '\n';
       if w.opts.log_trace then prerr_endline line)
    fmt

let violation w fmt =
  Printf.ksprintf
    (fun s ->
       w.violations <- w.violations @ [ s ];
       tr w "VIOLATION: %s" s)
    fmt

(* --- DUT component lifecycle ------------------------------------------- *)

let rec do_kill w comp =
  let down name = tr w "%s down" name in
  match comp with
  | C_fea ->
    Option.iter (fun c -> Fea.shutdown c; w.fea <- None; down "fea") w.fea
  | C_rib ->
    Option.iter (fun c -> Rib.shutdown c; w.rib <- None; down "rib") w.rib
  | C_bgp ->
    Option.iter
      (fun c -> Bgp_process.shutdown c; w.bgp <- None; down "bgp")
      w.bgp
  | C_rip ->
    Option.iter
      (fun c -> Rip_process.shutdown c; w.rip <- None; down "rip")
      w.rip
  | C_ospf ->
    Option.iter
      (fun c -> Ospf_process.shutdown c; w.ospf <- None; down "ospf")
      w.ospf

and arm_kill w comp router =
  Pf_kill.make_signalable router ~on_signal:(fun _signal ->
      (* Defer so the TERM reply does not travel through a router that
         is already shutting down. *)
      Eventloop.defer w.loop (fun () -> do_kill w comp))

and start_component w comp =
  match comp with
  | C_fea ->
    if w.fea = None then begin
      let dataplane =
        if w.opts.dataplane_ttl_leak then
          `Graph (leaky_dataplane_config ~ifaces:(List.map fst dut_ifaces))
        else `Default
      in
      let fea =
        Fea.create ~families:w.families ~interfaces:dut_ifaces
          ~netsim:w.netsim ~dataplane w.finder w.loop ()
      in
      arm_kill w C_fea (Fea.xrl_router fea);
      w.fea <- Some fea;
      tr w "fea up"
    end
  | C_rib ->
    if w.rib = None then begin
      let rib =
        Rib.create ~families:w.families
          ~fea_rebirth_replay:w.opts.fea_rebirth_replay w.finder w.loop ()
      in
      List.iter
        (fun (n, nh) ->
           ignore
             (Rib.add_route rib ~protocol:"connected" ~net:n ~nexthop:nh ()))
        connected_nets;
      arm_kill w C_rib (Rib.xrl_router rib);
      w.rib <- Some rib;
      tr w "rib up"
    end
  | C_bgp ->
    if w.bgp = None then begin
      (* Tiny inbound slices (the real defaults are sized for 146k-route
         loads) so even the harness's small surges exercise the staged
         inbound path and both priority lanes; [lane_ordered:false] is
         the injected lane-reorder bug the fuzzer must catch. *)
      let bgp =
        Bgp_process.create ~families:w.families ~inbound_slice:4
          ~urgent_threshold:4 ~lane_ordered:(not w.opts.bgp_lane_unordered)
          ~rib_rebirth_resync:w.opts.rib_resync
          ~redump_on_reestablish:w.opts.bgp_redump w.finder w.loop
          ~netsim:w.netsim ~local_as:65001 ~bgp_id:(ip "1.1.1.1") ()
      in
      Bgp_process.add_peer bgp
        { (Bgp_process.default_peer_config ~peer_addr:(ip "10.0.0.9")
             ~local_addr:(ip "10.0.0.1") ~peer_as:65100)
          with Bgp_process.deletion_slice = 20 };
      arm_kill w C_bgp (Bgp_process.xrl_router bgp);
      Bgp_process.start bgp;
      w.bgp <- Some bgp;
      tr w "bgp up"
    end
  | C_rip ->
    if w.rip = None then begin
      let cfg =
        Rip_process.default_config
          ~ifaces:
            [ { Rip_process.if_addr = ip "10.0.2.1";
                if_neighbors = [ ip "10.0.2.2" ] } ]
      in
      let rip =
        Rip_process.create ~families:w.families
          ~rib_rebirth_resync:w.opts.rib_resync w.finder w.loop cfg
      in
      arm_kill w C_rip (Rip_process.xrl_router rip);
      Rip_process.start rip;
      w.rip <- Some rip;
      tr w "rip up"
    end
  | C_ospf ->
    if w.ospf = None then begin
      let cfg =
        Ospf_process.default_config ~router_id:(ip "1.1.1.1")
          ~ifaces:
            [ { Ospf_process.o_addr = ip "10.0.1.1";
                o_neighbors =
                  [ { Ospf_process.n_addr = ip "10.0.1.2";
                      n_id = ip "2.2.2.2"; n_cost = 1 } ] } ]
          ()
      in
      let ospf =
        Ospf_process.create ~families:w.families
          ~rib_rebirth_resync:w.opts.rib_resync w.finder w.loop cfg
      in
      arm_kill w C_ospf (Ospf_process.xrl_router ospf);
      Ospf_process.start ospf;
      w.ospf <- Some ospf;
      tr w "ospf up"
    end

(* --- world construction ------------------------------------------------ *)

let boot_peer ~loop ~netsim ~finder name config =
  match Rtrmgr.boot ~loop ~netsim ~finder ~config () with
  | Ok r -> r
  | Error problems ->
    failwith
      (Printf.sprintf "simtest: %s config rejected: %s" name
         (String.concat "; " problems))

let spawn (sc : scenario) (opts : opts) =
  (* A fresh world per run; global telemetry restarts from zero so any
     counter the trace or the invariants consult is per-run. *)
  Telemetry.reset ();
  let seed = sc.seed in
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let tb_rng = substream seed 0x7E13 in
  Eventloop.set_tie_break loop (Some (fun n -> Rng.int tb_rng n));
  let lat_rng = substream seed 0x1A7E in
  let lat_max = ref sc.xrl_latency in
  let latency () =
    if !lat_max <= 0. then 0. else Rng.float lat_rng *. !lat_max
  in
  let chaos_cfg =
    Pf_chaos.config ~dup_prob:sc.background.dup ~delay:sc.background.delay
      ~delay_jitter:sc.background.jitter ()
  in
  let chaos_rng = substream seed 0xC4A0 in
  let sim_fam = Pf_sim.family ~latency netsim ~local_addr:(ip "10.99.0.1") in
  let fam = Pf_chaos.wrap ~rng:chaos_rng ~seed ~config:chaos_cfg sim_fam in
  let families = [ fam; Pf_kill.family ] in
  let finder = Finder.create ~seed:(seed lxor 0x0F1) () in
  let killer =
    Xrl_router.create ~families:[ Pf_kill.family ] ~family_pref:[ "kill" ]
      finder loop ~class_name:"simctl" ()
  in
  let isp =
    boot_peer ~loop ~netsim
      ~finder:(Finder.create ~seed:(seed lxor 0x0F2) ())
      "isp" isp_config
  in
  let neighbor =
    boot_peer ~loop ~netsim
      ~finder:(Finder.create ~seed:(seed lxor 0x0F3) ())
      "neighbor" neighbor_config
  in
  let legacy =
    boot_peer ~loop ~netsim
      ~finder:(Finder.create ~seed:(seed lxor 0x0F4) ())
      "legacy" legacy_config
  in
  let w =
    { loop; netsim; finder; families; chaos_cfg; background = sc.background;
      lat_max; killer; fea = None; rib = None; bgp = None; rip = None;
      ospf = None; isp; neighbor; legacy;
      feed_rng = substream seed 0xFEED; injected = Hashtbl.create 64;
      trace = Buffer.create 4096; violations = []; repaired = false; opts }
  in
  (* FEA first, then the RIB, then protocols — the same dependency
     order the Router Manager uses. *)
  List.iter (start_component w) [ C_fea; C_rib; C_bgp; C_rip; C_ospf ];
  w

(* --- event execution --------------------------------------------------- *)

let send_kill w comp =
  Pf_kill.send_signal w.killer ~target:(component_name comp) ~signal:"TERM"
    (fun err ->
       if not (Xrl_error.is_ok err) then
         tr w "kill %s signal failed: %s" (component_name comp)
           (Xrl_error.to_string err))

let alive w = function
  | C_fea -> w.fea <> None
  | C_rib -> w.rib <> None
  | C_bgp -> w.bgp <> None
  | C_rip -> w.rip <> None
  | C_ospf -> w.ospf <> None

let fresh_prefix w =
  let rec draw tries =
    if tries > 1000 then failwith "simtest: prefix space exhausted";
    let n =
      net
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

let do_flap w s =
  let reappear delay f = ignore (Eventloop.after w.loop delay f) in
  match s with
  | S_bgp -> (
    match Rtrmgr.bgp w.isp with
    | None -> ()
    | Some bgp ->
      let n = isp_nets.(Rng.int w.feed_rng (Array.length isp_nets)) in
      tr w "flap bgp %s" (Ipv4net.to_string n);
      Bgp_process.withdraw bgp n;
      reappear 2.0 (fun () -> Bgp_process.originate bgp n))
  | S_rip -> (
    match Rtrmgr.rip w.legacy with
    | None -> ()
    | Some rip ->
      let n = legacy_nets.(Rng.int w.feed_rng (Array.length legacy_nets)) in
      tr w "flap rip %s" (Ipv4net.to_string n);
      Rip_process.retract rip n;
      reappear 2.0 (fun () -> Rip_process.inject rip ~net:n ()))
  | S_ospf -> (
    match Rtrmgr.ospf w.neighbor with
    | None -> ()
    | Some ospf ->
      let n = stub_nets.(Rng.int w.feed_rng (Array.length stub_nets)) in
      tr w "flap ospf %s" (Ipv4net.to_string n);
      Ospf_process.remove_stub ospf n;
      reappear 2.0 (fun () -> Ospf_process.add_stub ospf n 1))

let exec w op =
  match op with
  | Kill c ->
    tr w "event: kill %s" (component_name c);
    if alive w c then send_kill w c else tr w "kill %s: already down"
        (component_name c)
  | Restart c ->
    tr w "event: restart %s" (component_name c);
    start_component w c
  | Flap s -> do_flap w s
  | Inject n ->
    tr w "event: inject %d" n;
    (match Rtrmgr.bgp w.isp with
     | None -> ()
     | Some bgp ->
       for _ = 1 to n do
         Bgp_process.originate bgp (fresh_prefix w)
       done)
  | Surge n ->
    tr w "event: surge %d" n;
    (match Rtrmgr.bgp w.isp with
     | None -> ()
     | Some bgp ->
       let nets = List.init n (fun _ -> fresh_prefix w) in
       List.iter (Bgp_process.originate bgp) nets;
       (* Two loop iterations later — after the ISP's RibOut has
          flushed the surge UPDATE, but in the same virtual instant —
          withdraw the last surged prefix and originate three more.
          At the DUT the surge is staged; the chaser lands right
          behind it, so the last add drains with a 4-deep tail (bulk
          lane) while the withdrawal drains moments later from the
          nearly empty queue (urgent lane). The §5.1.2 per-prefix
          guard is what keeps that urgent withdrawal behind the very
          bulk add it must not overtake. *)
       match List.rev nets with
       | last :: _ ->
         Eventloop.defer w.loop (fun () ->
             Eventloop.defer w.loop (fun () ->
                 match Rtrmgr.bgp w.isp with
                 | Some bgp ->
                   tr w "surge chaser: withdraw %s +3"
                     (Ipv4net.to_string last);
                   Bgp_process.withdraw bgp last;
                   for _ = 1 to 3 do
                     Bgp_process.originate bgp (fresh_prefix w)
                   done
                 | None -> ()))
       | [] -> ())
  | Sever -> (
    tr w "event: sever";
    match w.bgp with
    | Some bgp ->
      if not (Bgp_process.sever_session bgp (ip "10.0.0.9")) then
        tr w "sever: no live session"
    | None -> tr w "sever: bgp is down")
  | Delay_burst dur ->
    tr w "event: delay burst %gs" dur;
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
  | Check -> () (* handled by the runner at its own pace *)
  | Kill_in (r, _) | Restart_in (r, _) ->
    tr w "event: topology op for %s ignored (fixed world)" r
  | Link_sever (a, b) | Link_heal (a, b) | Link_flap (a, b) ->
    tr w "event: link op %s-%s ignored (fixed world)" a b

(* --- convergence ------------------------------------------------------- *)

let pending_by_component w =
  let p r = Xrl_router.pending_sends r in
  let opt f = function Some c -> p (f c) | None -> 0 in
  [ ("simctl", p w.killer);
    ("fea", opt Fea.xrl_router w.fea);
    ("rib", opt Rib.xrl_router w.rib);
    ("bgp", opt Bgp_process.xrl_router w.bgp);
    ("rip", opt Rip_process.xrl_router w.rip);
    ("ospf", opt Ospf_process.xrl_router w.ospf) ]

let pending w =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (pending_by_component w)

let signature w =
  let rib_n = match w.rib with Some r -> Rib.route_count r | None -> -1 in
  let fib_n =
    match w.fea with Some f -> Fib.size (Fea.fib f) | None -> -1
  in
  let bgp_n, est =
    match w.bgp with
    | Some b -> (Bgp_process.route_count b, Bgp_process.established_count b)
    | None -> (-1, -1)
  in
  let rip_n = match w.rip with Some r -> Rip_process.route_count r | None -> -1 in
  let ospf_n =
    match w.ospf with
    | Some o -> List.length (Ospf_process.route_table o)
    | None -> -1
  in
  let origin p =
    match w.rib with Some r -> Rib.origin_route_count r p | None -> -1
  in
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d" rib_n fib_n bgp_n est
    rip_n ospf_n (origin "ebgp") (origin "rip") (origin "ospf")
    (Rib.route_count (Rtrmgr.rib w.isp))
    (Rib.route_count (Rtrmgr.rib w.neighbor))
    (Rib.route_count (Rtrmgr.rib w.legacy))

(* Quiescence here means: the per-component counts have been stable
   across a window longer than any periodic refresh (RIP's jittered
   interval is the worst at ~35 s) and no XRL is unsettled. Bounded,
   because a diverged world may still be churning.

   The step is deliberately not a multiple of the protocols' timer
   grid: OSPF hellos fire at exact multiples of 5 s, and
   [run_until_time] dispatches timers due exactly at its target before
   stopping — sampling at aligned instants would always catch a
   freshly transmitted hello as an unsettled send. *)
let converge w =
  let step = 9.7 in
  let needed = 5 in
  let max_steps = 90 in
  let rec go n stable last =
    Eventloop.run_until_time w.loop (Eventloop.now w.loop +. step);
    let s = signature w in
    let stable = if s = last && pending w = 0 then stable + 1 else 0 in
    if stable >= needed then true
    else if n >= max_steps then begin
      violation w "no convergence after %.0f s (signature %s)"
        (float_of_int max_steps *. step) s;
      false
    end
    else go (n + 1) stable s
  in
  go 0 0 ""

(* --- invariants -------------------------------------------------------- *)

(* Forwarding-plane invariant: at a quiescent point, the element graph
   must agree with [Fib.lookup] packet for packet. Probes are injected
   through the real ingress path and intercepted at ToNetsim with an
   absorbing tx hook, so they never reach the shared netsim and cannot
   disturb the protocol sessions. The scheduler chain drains on
   deferred events, so [run_until_idle] is enough to flush each probe
   without advancing the clock. *)
let check_dataplane w ~tag fea dp =
  let fail fmt =
    Printf.ksprintf (fun s -> violation w "%s: dataplane: %s" tag s) fmt
  in
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
         (Packet.make ~ttl ~src:(ip "10.0.0.7") ~dst ())
     with
     | Ok () -> ()
     | Error e -> fail "probe inject failed: %s" e);
    Eventloop.run_until_idle w.loop;
    !exits
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
        match Fib.lookup fib dst with
        | None -> fail "%s is in the FIB but lookup misses it"
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
  let dark = ip "203.0.113.77" in
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

let check_invariants w ~tag =
  let fail fmt = Printf.ksprintf (fun s -> violation w "%s: %s" tag s) fmt in
  (* 1. Every RIB winner is installed in the FIB with the same nexthop,
        and nothing else is. *)
  (match (w.rib, w.fea) with
   | Some rib, Some fea ->
     let fib = Fea.fib fea in
     let missing =
       Rib.fold_winners rib
         (fun r acc ->
            match Fib.get fib r.Rib_route.net with
            | Some e when Ipv4.equal e.Fib.nexthop r.Rib_route.nexthop -> acc
            | Some e ->
              fail "FIB nexthop for %s is %s, RIB says %s"
                (Ipv4net.to_string r.Rib_route.net)
                (Ipv4.to_string e.Fib.nexthop)
                (Ipv4.to_string r.Rib_route.nexthop);
              acc
            | None -> r.Rib_route.net :: acc)
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
       (fun r () -> Hashtbl.replace winners r.Rib_route.net ())
       ();
     List.iter
       (fun (e : Fib.entry) ->
          if not (Hashtbl.mem winners e.Fib.net) then
            fail "FIB entry %s (%s) has no RIB winner — stale survivor"
              (Ipv4net.to_string e.Fib.net)
              e.Fib.protocol)
       (Fib.entries fib);
     (* 2. No forwarding loops: following nexthops through the FIB must
           reach a directly connected network within 32 hops. *)
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
  (* 3. Per-protocol agreement between each component's own table and
        the RIB origin table it feeds. *)
  (match (w.rib, w.bgp) with
   | Some rib, Some bgp ->
     let b = Bgp_process.route_count bgp
     and o = Rib.origin_route_count rib "ebgp" in
     if b <> o then fail "BGP holds %d winners but RIB ebgp origin has %d" b o
   | _ -> ());
  (match (w.rib, w.rip) with
   | Some rib, Some rip ->
     let r = Rip_process.route_count rip
     and o = Rib.origin_route_count rib "rip" in
     if r <> o then fail "RIP holds %d routes but RIB rip origin has %d" r o
   | _ -> ());
  (match (w.rib, w.ospf) with
   | Some rib, Some ospf ->
     let s = List.length (Ospf_process.route_table ospf)
     and o = Rib.origin_route_count rib "ospf" in
     if s <> o then fail "OSPF holds %d routes but RIB ospf origin has %d" s o
   | _ -> ());
  (* 4. Nothing in flight: every XRL settled. *)
  let p = pending w in
  if p <> 0 then
    fail "%d XRL sends still unsettled (%s)" p
      (pending_by_component w
      |> List.filter (fun (_, n) -> n > 0)
      |> List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n)
      |> String.concat " ");
  (* 5. Transport telemetry is consistent: the sim family cannot
        dispatch more requests than were transmitted. *)
  let tx = Telemetry.counter_value (Telemetry.counter "xrl.sim.requests_tx")
  and rx = Telemetry.counter_value (Telemetry.counter "xrl.sim.requests_rx") in
  if rx > tx then fail "sim transport dispatched %d requests but sent %d" rx tx;
  (* 6. The element-graph forwarding path agrees with the FIB. *)
  (match w.fea with
   | Some fea ->
     Option.iter (fun dp -> check_dataplane w ~tag fea dp) (Fea.dataplane fea)
   | None -> ());
  tr w "%s: invariants checked (%s)" tag (signature w)

(* --- repair and teardown ----------------------------------------------- *)

let repair w =
  w.repaired <- true;
  w.chaos_cfg.Pf_chaos.dup_prob <- 0.;
  w.chaos_cfg.Pf_chaos.delay <- 0.;
  w.chaos_cfg.Pf_chaos.delay_jitter <- 0.;
  w.lat_max := 0.;
  List.iter
    (fun c -> if not (alive w c) then start_component w c)
    [ C_fea; C_rib; C_bgp; C_rip; C_ospf ];
  tr w "repaired: chaos off, all components up"

let teardown w =
  tr w "teardown";
  List.iter (do_kill w) [ C_bgp; C_rip; C_ospf; C_rib; C_fea ];
  Xrl_router.shutdown w.killer;
  Rtrmgr.shutdown w.isp;
  Rtrmgr.shutdown w.neighbor;
  Rtrmgr.shutdown w.legacy;
  Eventloop.set_tie_break w.loop None;
  (* Drain: everything already scheduled must either fire and not
     re-arm, or have been cancelled by the shutdowns above. RIP's
     jittered update timer is the slowest straggler (~35 s). *)
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
    violation w "teardown: %d background tasks leaked after shutdown" tasks;
  let p = Xrl_router.pending_sends w.killer in
  if p <> 0 then violation w "teardown: %d sends unsettled after shutdown" p

(* --- runner ------------------------------------------------------------ *)

type outcome = {
  ran : scenario;
  violations : string list;
  trace : string;
  sim_time : float;
  dispatched : int;
}

(* --- the topology world ------------------------------------------------ *)

let rtrmgr_component = function
  | C_fea -> `Fea | C_rib -> `Rib | C_bgp -> `Bgp
  | C_rip -> `Rip | C_ospf -> `Ospf

(* Map scenario ops onto the multi-router world. One-argument
   kill/restart address the first router; the fixed-world feed ops
   (flap-source, inject, surge, sever-session) have no topology
   meaning and are dropped. *)
let revent_of_op ~first = function
  | Kill_in (r, c) -> Some (Simnet.E_kill (r, rtrmgr_component c))
  | Restart_in (r, c) -> Some (Simnet.E_restart (r, rtrmgr_component c))
  | Link_sever (a, b) -> Some (Simnet.E_sever (a, b))
  | Link_heal (a, b) -> Some (Simnet.E_heal (a, b))
  | Link_flap (a, b) -> Some (Simnet.E_flap (a, b))
  | Kill c -> Some (Simnet.E_kill (first, rtrmgr_component c))
  | Restart c -> Some (Simnet.E_restart (first, rtrmgr_component c))
  | Delay_burst d -> Some (Simnet.E_delay_burst d)
  | Flap _ | Inject _ | Surge _ | Sever | Check -> None

let run_topo ~(opts : opts) (sc : scenario) topo =
  let params =
    { Simnet.seed = sc.seed; dup = sc.background.dup;
      delay = sc.background.delay; jitter = sc.background.jitter;
      xrl_latency = sc.xrl_latency; bgp_redump = opts.bgp_redump;
      log_trace = opts.log_trace }
  in
  let first =
    match topo.Topology.nodes with
    | n :: _ -> n.Topology.name
    | [] -> ""
  in
  let events =
    List.filter_map
      (fun ev ->
         Option.map (fun e -> (ev.at, e)) (revent_of_op ~first ev.op))
      sc.events
  in
  let checkpoints =
    List.filter_map
      (fun ev -> match ev.op with Check -> Some ev.at | _ -> None)
      sc.events
  in
  let o = Simnet.run params topo ~events ~checkpoints ~horizon:sc.horizon in
  { ran = sc; violations = o.Simnet.o_violations; trace = o.Simnet.o_trace;
    sim_time = o.Simnet.o_sim_time; dispatched = o.Simnet.o_dispatched }

let rec run ?(opts = default_opts) (sc : scenario) =
  match sc.topology with
  | Some topo -> run_topo ~opts sc topo
  | None -> run_fixed ~opts sc

and run_fixed ~opts (sc : scenario) =
  let w = spawn sc opts in
  tr w "scenario seed %d: %d events, horizon %g" sc.seed
    (List.length sc.events) sc.horizon;
  (* Schedule everything except checkpoints, which the runner drives so
     that convergence never nests inside an event callback. *)
  List.iter
    (fun ev ->
       match ev.op with
       | Check -> ()
       | op -> ignore (Eventloop.at w.loop ev.at (fun () -> exec w op)))
    sc.events;
  let checkpoints =
    List.filter_map
      (fun ev -> match ev.op with Check -> Some ev.at | _ -> None)
      sc.events
  in
  List.iter
    (fun at ->
       Eventloop.run_until_time w.loop at;
       ignore (converge w);
       check_invariants w ~tag:(Printf.sprintf "check@%g" at))
    checkpoints;
  let last_event =
    List.fold_left (fun acc ev -> Float.max acc ev.at) 0. sc.events
  in
  Eventloop.run_until_time w.loop (Float.max sc.horizon (last_event +. 10.));
  repair w;
  ignore (converge w);
  check_invariants w ~tag:"final";
  teardown w;
  { ran = sc; violations = w.violations; trace = Buffer.contents w.trace;
    sim_time = Eventloop.now w.loop;
    dispatched = Eventloop.events_dispatched w.loop }

(* --- fuzzing ----------------------------------------------------------- *)

let generate ~seed =
  let g = Rng.create ((seed * 0x9E3779B1) lxor 0x5EEDF00D) in
  let pickf arr = arr.(Rng.int g (Array.length arr)) in
  let background =
    { dup = pickf [| 0.; 0.; 0.05; 0.1 |];
      delay = 0.;
      jitter = pickf [| 0.; 0.; 0.005; 0.02 |] }
  in
  let xrl_latency = pickf [| 0.; 0.; 0.002; 0.01 |] in
  (* Every component is fair game, the RIB included: protocols replay
     their tables into a reborn RIB and the FEA sweeps unconfirmed
     entries, so a RIB kill must converge like any other. *)
  let comps = [| C_fea; C_rib; C_bgp; C_rip; C_ospf |] in
  let sources = [| S_bgp; S_rip; S_ospf |] in
  let n = Rng.int g 5 in
  let evs = ref [] in
  for _ = 1 to n do
    let at = 20. +. (Rng.float g *. 65.) in
    match Rng.int g 10 with
    | 0 | 1 | 2 | 3 ->
      let c = comps.(Rng.int g (Array.length comps)) in
      evs := kill_at at c :: !evs;
      if Rng.bool g then
        evs := restart_at (at +. 5. +. (Rng.float g *. 20.)) c :: !evs
    | 4 | 5 -> evs := flap_at at sources.(Rng.int g (Array.length sources)) :: !evs
    | 6 -> evs := inject_routes at (1 + Rng.int g 15) :: !evs
    | 7 -> evs := surge_at at (5 + Rng.int g 15) :: !evs
    | 8 -> evs := partition at :: !evs
    | _ -> evs := delay_burst_at at ~dur:(2. +. (Rng.float g *. 8.)) :: !evs
  done;
  scenario ~seed ~background ~xrl_latency ~horizon:120. !evs

let generate_topo ~seed =
  let g = Rng.create ((seed * 0x9E3779B1) lxor 0x70FF5EED) in
  let pickf arr = arr.(Rng.int g (Array.length arr)) in
  let topo = Topology.generate ~seed in
  let names =
    Array.of_list (List.map (fun n -> n.Topology.name) topo.Topology.nodes)
  in
  let links = Array.of_list topo.Topology.links in
  let background =
    { dup = pickf [| 0.; 0.; 0.05; 0.1 |];
      delay = 0.;
      jitter = pickf [| 0.; 0.; 0.005; 0.02 |] }
  in
  let xrl_latency = pickf [| 0.; 0.; 0.002; 0.01 |] in
  let comps = [| C_fea; C_rib; C_bgp; C_rip; C_ospf |] in
  let n = 1 + Rng.int g 4 in
  let evs = ref [] in
  for _ = 1 to n do
    let at = 20. +. (Rng.float g *. 60.) in
    match Rng.int g 10 with
    | 0 | 1 | 2 ->
      let r = names.(Rng.int g (Array.length names)) in
      let c = comps.(Rng.int g (Array.length comps)) in
      evs := kill_in_at at r c :: !evs;
      if Rng.bool g then
        evs := restart_in_at (at +. 5. +. (Rng.float g *. 20.)) r c :: !evs
    | (3 | 4 | 5) when Array.length links > 0 ->
      let a, b = links.(Rng.int g (Array.length links)) in
      evs := flap_link_at at a b :: !evs
    | (6 | 7 | 8) when Array.length links > 0 ->
      let a, b = links.(Rng.int g (Array.length links)) in
      evs := sever_link_at at a b :: !evs;
      if Rng.bool g then
        evs := heal_link_at (at +. 5. +. (Rng.float g *. 20.)) a b :: !evs
    | _ -> evs := delay_burst_at at ~dur:(2. +. (Rng.float g *. 8.)) :: !evs
  done;
  scenario ~seed ~background ~xrl_latency ~horizon:120. ~topology:topo !evs

let shrink ?(opts = default_opts) sc0 =
  let runs = ref 0 in
  let still_fails sc =
    incr runs;
    (run ~opts sc).violations <> []
  in
  let budget = 100 in
  (* Greedily drop events to a fixpoint: after a successful removal,
     retry from the same index (the list shifted under it). *)
  let rec drop_events sc i =
    if !runs >= budget || i >= List.length sc.events then sc
    else
      let cand =
        { sc with events = List.filteri (fun j _ -> j <> i) sc.events }
      in
      if still_fails cand then drop_events cand i else drop_events sc (i + 1)
  in
  let sc = drop_events sc0 0 in
  (* Shrink the topology itself: drop routers, then links. Events left
     naming a removed piece are traced no-ops at run time, and a final
     drop_events pass sweeps them out. *)
  let rec drop_nodes sc i =
    match sc.topology with
    | None -> sc
    | Some topo ->
      if !runs >= budget || i >= List.length topo.Topology.nodes then sc
      else
        let name = (List.nth topo.Topology.nodes i).Topology.name in
        let t' = Topology.drop_node topo name in
        if Topology.size t' = 0 then drop_nodes sc (i + 1)
        else
          let cand = { sc with topology = Some t' } in
          if still_fails cand then drop_nodes cand i
          else drop_nodes sc (i + 1)
  in
  let sc = drop_nodes sc 0 in
  let rec drop_links sc i =
    match sc.topology with
    | None -> sc
    | Some topo ->
      if !runs >= budget || i >= List.length topo.Topology.links then sc
      else
        let l = List.nth topo.Topology.links i in
        let cand = { sc with topology = Some (Topology.drop_link topo l) } in
        if still_fails cand then drop_links cand i else drop_links sc (i + 1)
  in
  let sc = drop_links sc 0 in
  let sc = if sc.topology <> None then drop_events sc 0 else sc in
  (* Then zero the ambient-chaos knobs one at a time. *)
  let try_calm sc cand = if !runs < budget && still_fails cand then cand else sc in
  let sc =
    if sc.background <> calm then try_calm sc { sc with background = calm }
    else sc
  in
  let sc =
    if sc.xrl_latency > 0. then try_calm sc { sc with xrl_latency = 0. }
    else sc
  in
  (sc, !runs)

type fuzz_result = {
  seeds_run : int;
  failed : (outcome * scenario) option;
  shrink_runs : int;
}

let fuzz ?(opts = default_opts) ?(progress = fun _ -> ()) ?(topo = false)
    ~base ~count () =
  let gen = if topo then generate_topo else generate in
  let rec go i =
    if i >= count then { seeds_run = count; failed = None; shrink_runs = 0 }
    else begin
      let seed = base + i in
      progress seed;
      let sc = gen ~seed in
      let o = run ~opts sc in
      if o.violations = [] then go (i + 1)
      else begin
        let minimal, shrink_runs = shrink ~opts sc in
        { seeds_run = i + 1; failed = Some (o, minimal); shrink_runs }
      end
    end
  in
  go 0
