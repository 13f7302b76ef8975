(* Deterministic simulation scenarios (see simtest.mli).

   Everything an execution does is a function of the scenario's master
   seed: the seed derives separate PRNG streams for transport chaos,
   XRL virtual latency, timer tie-breaks and feed content; the Finders
   get seeded method keys; and the clock is virtual. Two runs of the
   same scenario in the same process therefore produce byte-identical
   traces — which is what makes a fuzzed counterexample replayable
   from one integer. *)

(* --- scenarios --------------------------------------------------------- *)

type op = Simnet.op =
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

type event = { at : float; op : op }

type chaos_levels = Simnet.chaos_levels = {
  dup : float;
  delay : float;
  jitter : float;
}

type scenario = {
  seed : int;
  background : chaos_levels;
  xrl_latency : float;
  events : event list;
  horizon : float;
  topology : Topology.t;
}

let classic =
  let node name protos = { Topology.name; protos } in
  Topology.make
    ~nodes:
      [ node "dut" { Topology.bgp = Topology.B_ebgp; rip = true; ospf = true };
        node "isp" Topology.bgp_only;
        node "neighbor" { Topology.no_protos with ospf = true };
        node "legacy" { Topology.no_protos with rip = true } ]
    ~links:[ ("dut", "isp"); ("dut", "neighbor"); ("dut", "legacy") ]

let at at op = { at; op }

let sort_events evs =
  List.stable_sort (fun a b -> compare a.at b.at) evs

let scenario ?(seed = 0) ?(background = Simnet.calm) ?(xrl_latency = 0.)
    ?(horizon = 120.) ?(topology = classic) events =
  { seed; background; xrl_latency; events = sort_events events; horizon;
    topology }

let to_string sc =
  let b = Buffer.create 256 in
  Printf.bprintf b "seed %d\n" sc.seed;
  Printf.bprintf b "horizon %g\n" sc.horizon;
  Buffer.add_string b (Topology.to_string sc.topology);
  if sc.background.dup > 0. then Printf.bprintf b "dup %g\n" sc.background.dup;
  if sc.background.delay > 0. then
    Printf.bprintf b "delay %g\n" sc.background.delay;
  if sc.background.jitter > 0. then
    Printf.bprintf b "jitter %g\n" sc.background.jitter;
  if sc.xrl_latency > 0. then
    Printf.bprintf b "latency %g\n" sc.xrl_latency;
  List.iter
    (fun ev -> Printf.bprintf b "at %g %s\n" ev.at (Simnet.op_to_string ev.op))
    sc.events;
  Buffer.contents b

let of_string text =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let sc = ref (scenario []) in
  let topo_lines = ref [] in
  let rec go = function
    | [] -> (
      let s = { !sc with events = sort_events (List.rev !sc.events) } in
      match !topo_lines with
      | [] -> Ok s
      | lines -> (
        match Topology.of_string (String.concat "\n" (List.rev lines)) with
        | Ok t -> Ok { s with topology = t }
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
      let background f =
        sc := { !sc with background = f !sc.background };
        go rest
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
        float_arg v (fun f -> background (fun b -> { b with dup = f }))
      | [ "delay"; v ] ->
        float_arg v (fun f -> background (fun b -> { b with delay = f }))
      | [ "jitter"; v ] ->
        float_arg v (fun f -> background (fun b -> { b with jitter = f }))
      | [ "latency"; v ] ->
        float_arg v (fun f -> sc := { !sc with xrl_latency = f }; go rest)
      | "at" :: t :: opw -> (
        float_arg t (fun at ->
            let add op =
              sc := { !sc with events = { at; op } :: !sc.events };
              go rest
            in
            let component c k =
              match
                List.find_opt
                  (fun x -> Rtrmgr.component_name x = c)
                  Rtrmgr.components
              with
              | Some c -> add (k c)
              | None -> err "unknown component %S" c
            in
            let count n k =
              match int_of_string_opt n with
              | Some n -> add (k n)
              | None -> err "bad count %S" n
            in
            match opw with
            | [ "kill"; r; c ] -> component c (fun c -> Kill (r, c))
            | [ "restart"; r; c ] -> component c (fun c -> Restart (r, c))
            | [ "flap"; r ] -> add (Flap r)
            | [ "inject"; r; n ] -> count n (fun n -> Inject (r, n))
            | [ "surge"; r; n ] -> count n (fun n -> Surge (r, n))
            | [ "flap"; a; b ] -> add (Link_flap (a, b))
            | [ "sever"; a; b ] -> add (Link_sever (a, b))
            | [ "heal"; a; b ] -> add (Link_heal (a, b))
            | [ "delay-burst"; d ] -> (
              match float_of_string_opt d with
              | Some d -> add (Delay_burst d)
              | None -> err "bad duration %S" d)
            | [ "check" ] -> add Check
            | _ -> err "cannot parse op in %S" line))
      | _ -> err "cannot parse line %S" line)
  in
  go lines

(* --- running ----------------------------------------------------------- *)

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
let leaky_dataplane_config ifaces =
  Dataplane.default_config ~ifaces
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         if String.equal (String.trim line) "ttl :: DecTtl" then
           "ttl :: LeakDecTtl"
         else line)
  |> String.concat "\n"

(* Every router the runner boots gets the injected bugs and tiny BGP
   slices (the real defaults are sized for 146k-route loads), so even
   the harness's small surges exercise the staged inbound path, both
   priority lanes and sliced deletion. *)
let knobs o =
  { Rtrmgr.fea_rebirth_replay = o.fea_rebirth_replay;
    rib_resync = o.rib_resync;
    bgp_lane_ordered = not o.bgp_lane_unordered;
    bgp_redump = o.bgp_redump;
    bgp_inbound_slice = Some 4;
    bgp_urgent_threshold = Some 4;
    bgp_deletion_slice = Some 20;
    dataplane =
      (if o.dataplane_ttl_leak then Some leaky_dataplane_config else None) }

type outcome = {
  ran : scenario;
  violations : string list;
  trace : string;
  sim_time : float;
  dispatched : int;
}

let run ?(opts = default_opts) sc =
  let w =
    Simnet.spawn ~seed:sc.seed ~background:sc.background
      ~xrl_latency:sc.xrl_latency ~knobs:(knobs opts) ~log_trace:opts.log_trace
      sc.topology
  in
  let loop = Simnet.eventloop w in
  (* Schedule everything except checkpoints, which the runner drives so
     that convergence never nests inside an event callback. *)
  List.iter
    (fun ev ->
       if ev.op <> Check then
         ignore (Eventloop.at loop ev.at (fun () -> Simnet.exec w ev.op)))
    sc.events;
  List.iter
    (fun ev ->
       if ev.op = Check then begin
         Eventloop.run_until_time loop ev.at;
         ignore (Simnet.converge w);
         Simnet.check_all w ~tag:(Printf.sprintf "check@%g" ev.at)
       end)
    sc.events;
  let last_event =
    List.fold_left (fun acc ev -> Float.max acc ev.at) 0. sc.events
  in
  Eventloop.run_until_time loop (Float.max sc.horizon (last_event +. 10.));
  Simnet.repair w;
  ignore (Simnet.converge w);
  Simnet.check_all w ~tag:"final";
  Simnet.teardown w;
  { ran = sc; violations = Simnet.violations w; trace = Simnet.trace w;
    sim_time = Eventloop.now loop;
    dispatched = Eventloop.events_dispatched loop }

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
  let comps = Array.of_list Rtrmgr.components in
  (* The BGP, RIP and OSPF feeds, by the router that originates each. *)
  let feeds = [| "isp"; "legacy"; "neighbor" |] in
  let n = Rng.int g 5 in
  let evs = ref [] in
  let add ev = evs := ev :: !evs in
  for _ = 1 to n do
    let t = 20. +. (Rng.float g *. 65.) in
    match Rng.int g 10 with
    | 0 | 1 | 2 | 3 ->
      let c = comps.(Rng.int g (Array.length comps)) in
      add (at t (Kill ("dut", c)));
      if Rng.bool g then
        add (at (t +. 5. +. (Rng.float g *. 20.)) (Restart ("dut", c)))
    | 4 | 5 -> add (at t (Flap feeds.(Rng.int g (Array.length feeds))))
    | 6 -> add (at t (Inject ("isp", 1 + Rng.int g 15)))
    | 7 -> add (at t (Surge ("isp", 5 + Rng.int g 15)))
    | 8 -> add (at t (Link_sever ("dut", "isp")))
    | _ -> add (at t (Delay_burst (2. +. (Rng.float g *. 8.))))
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
  let comps = Array.of_list Rtrmgr.components in
  let n = 1 + Rng.int g 4 in
  let evs = ref [] in
  let add ev = evs := ev :: !evs in
  for _ = 1 to n do
    let t = 20. +. (Rng.float g *. 60.) in
    match Rng.int g 10 with
    | 0 | 1 | 2 ->
      let r = names.(Rng.int g (Array.length names)) in
      let c = comps.(Rng.int g (Array.length comps)) in
      add (at t (Kill (r, c)));
      if Rng.bool g then
        add (at (t +. 5. +. (Rng.float g *. 20.)) (Restart (r, c)))
    | (3 | 4 | 5) when Array.length links > 0 ->
      let a, b = links.(Rng.int g (Array.length links)) in
      add (at t (Link_flap (a, b)))
    | (6 | 7 | 8) when Array.length links > 0 ->
      let a, b = links.(Rng.int g (Array.length links)) in
      add (at t (Link_sever (a, b)));
      if Rng.bool g then
        add (at (t +. 5. +. (Rng.float g *. 20.)) (Link_heal (a, b)))
    | _ -> add (at t (Delay_burst (2. +. (Rng.float g *. 8.))))
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
    let topo = sc.topology in
    if !runs >= budget || i >= List.length topo.Topology.nodes then sc
    else
      let name = (List.nth topo.Topology.nodes i).Topology.name in
      let t' = Topology.drop_node topo name in
      if Topology.size t' = 0 then drop_nodes sc (i + 1)
      else
        let cand = { sc with topology = t' } in
        if still_fails cand then drop_nodes cand i else drop_nodes sc (i + 1)
  in
  let sc = drop_nodes sc 0 in
  let rec drop_links sc i =
    let topo = sc.topology in
    if !runs >= budget || i >= List.length topo.Topology.links then sc
    else
      let l = List.nth topo.Topology.links i in
      let cand = { sc with topology = Topology.drop_link topo l } in
      if still_fails cand then drop_links cand i else drop_links sc (i + 1)
  in
  let sc = drop_links sc 0 in
  let sc = drop_events sc 0 in
  (* Then zero the ambient-chaos knobs one at a time. *)
  let try_calm sc cand = if !runs < budget && still_fails cand then cand else sc in
  let sc =
    if sc.background <> Simnet.calm then
      try_calm sc { sc with background = Simnet.calm }
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
