(* Time-to-network-wide-convergence after a link flap, vs network size.

   The paper argues (§8.3) that what matters for a routing system is
   not raw throughput but how fast the *network* re-converges after an
   event. This benchmark boots N complete router stacks (Rtrmgr, FEA,
   RIB, BGP each) on one virtual clock via the topology harness,
   converges them, reset-cuts a middle link (the far end sees the
   close immediately, withdrawals propagate, the link heals 2 s later
   and the session re-dumps), and measures how much virtual time
   passes until every router's tables and established BGP sessions
   stop changing ([Simnet.signature]) — then verifies the converged
   network against the full invariant set (reachability, loop-free
   forwarding walks, hop-optimality). The times are reported as
   session settle ([boot_settle_s], [flap_settle_s]): they include
   BGP's connect-retry rounds. On these topologies route convergence
   falls on the same sample (a digest of every FIB's nexthops, taken
   on the same grid, last changed there too; EXPERIMENTS.md): a
   session that comes up late still brings shorter paths.

   Sizes 3 (chain), 10 (2x5 grid), 30 (5x6 grid), 100 (10x10 grid).
   Virtual seconds measure protocol dynamics (timers, retries,
   propagation rounds); wall seconds measure the harness itself.
   Counts measure the work: events [dispatched] for the whole run, and
   from the flap to quiescence [flap_events] and [flap_xrls]. All are
   deterministic on the simulated clock. Emits BENCH_converge.json.
   [smoke] runs only the 30-router case as a CI gate: a wall-clock
   budget, and ceilings on its flap events and flap XRLs. *)

open Bench_util

let seed = 42

(* Convergence sampling: fine-grained so the virtual-time figure has
   sub-second resolution (the default 9.7 s step is for pass/fail, not
   measurement), but with the same ~50 s stable window as the default
   detector. The window must exceed the longest legitimate quiet gap
   in convergence: boot-time BGP connection collisions can redial on
   the 4 s connect-retry for several rounds without any table count
   changing, so a short window declares victory mid-gap.
   [last_change] is unaffected by the window: it records when the
   tables actually stopped moving. *)
let step = 0.53
let needed = 97
let max_steps = 600

type row = {
  routers : int;
  links : int;
  shape : string;
  boot_settle_s : float;   (* virtual time to the last table or session
                              count change *)
  flap_settle_s : float;   (* the same, from the flap *)
  wall_s : float;          (* harness wall time for the whole cycle *)
  dispatched : int;
  flap_events : int;       (* events dispatched from the flap to quiescence *)
  flap_xrls : int;         (* XRLs answered from the flap to quiescence *)
  violations : string list;
}

(* XRLs answered so far in the whole network: the sum of every
   router's [xrl.sim.calls] counter. Simnet's routers reach each other
   over the sim family alone, and its counter counts each call once,
   when its reply settles it. *)
let xrl_calls () =
  List.fold_left
    (fun n (name, metric) ->
       match metric, List.rev (String.split_on_char '.' name) with
       | Telemetry.Counter c, "calls" :: "sim" :: "xrl" :: _ ->
         n + Telemetry.counter_value c
       | _ -> n)
    0 (Telemetry.list_metrics ())

let measure (shape, topo) =
  let t0 = Unix.gettimeofday () in
  let w = Simnet.spawn ~seed topo in
  let booted, boot_settle = Simnet.converge ~step ~needed ~max_steps w in
  Simnet.check_all w ~tag:"boot";
  (* Flap the middle link: a reset cut that heals 2 s later. *)
  let links = topo.Topology.links in
  let a, b = List.nth links (List.length links / 2) in
  let loop = Simnet.eventloop w in
  let t_flap = Eventloop.now loop in
  let ev_flap = Eventloop.events_dispatched loop in
  let xrl_flap = xrl_calls () in
  Simnet.exec w (Simnet.Link_flap (a, b));
  let reconverged, flap_settle = Simnet.converge ~step ~needed ~max_steps w in
  let flap_events = Eventloop.events_dispatched loop - ev_flap in
  let flap_xrls = xrl_calls () - xrl_flap in
  Simnet.check_all w ~tag:"after-flap";
  Simnet.teardown w;
  let viol = Simnet.violations w in
  let viol = if booted && reconverged then viol else "did not converge" :: viol in
  let wall = Unix.gettimeofday () -. t0 in
  let r =
    { routers = Topology.size topo; links = List.length links; shape;
      boot_settle_s = boot_settle;
      flap_settle_s = Float.max 0. (flap_settle -. t_flap);
      wall_s = wall; dispatched = Eventloop.events_dispatched loop;
      flap_events; flap_xrls; violations = viol }
  in
  pf "   %-9s %3d routers %3d links: sessions settle at boot %6.2fs, \
      flap %6.2fs (virtual; %.1fs wall, %d events; from the flap %d \
      events, %d XRLs)%s\n%!"
    shape r.routers r.links r.boot_settle_s r.flap_settle_s wall
    r.dispatched r.flap_events r.flap_xrls
    (if viol = [] then "" else "  INVARIANT VIOLATIONS");
  List.iter (fun v -> pf "     violation: %s\n" v) viol;
  r

let sizes () =
  [ ("chain", Topology.chain 3);
    ("grid2x5", Topology.grid 2 5);
    ("grid5x6", Topology.grid 5 6);
    ("grid10x10", Topology.grid 10 10) ]

let emit rows =
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"bench\": \"converge\",\n";
  bpf "  \"seed\": %d,\n" seed;
  bpf "  \"sample_step_s\": %.2f,\n" step;
  bpf "  \"event\": \"reset-cut middle link, heal after 2s\",\n";
  bpf "  \"settle_s\": \"last change of every router's table and \
       established BGP session counts (session settle)\",\n";
  bpf "  \"flap_xrls\": \"XRLs answered from the flap to quiescence, \
       summed over every router's xrl.sim.calls counter\",\n";
  bpf "  \"sizes\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
       bpf
         "    { \"routers\": %d, \"links\": %d, \"shape\": %S, \
          \"boot_settle_s\": %.2f, \"flap_settle_s\": %.2f, \
          \"wall_s\": %.2f, \"dispatched\": %d, \"flap_events\": %d, \
          \"flap_xrls\": %d, \"violations\": %d }%s\n"
         r.routers r.links r.shape r.boot_settle_s r.flap_settle_s r.wall_s
         r.dispatched r.flap_events r.flap_xrls (List.length r.violations)
         (if i = n - 1 then "" else ","))
    rows;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out "BENCH_converge.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "   wrote BENCH_converge.json\n%!"

let gate rows =
  let bad = List.filter (fun r -> r.violations <> []) rows in
  if bad <> [] then begin
    List.iter
      (fun r ->
         Printf.eprintf "converge: GATE FAILED: %s (%d routers): %s\n"
           r.shape r.routers
           (String.concat "; " r.violations))
      bad;
    exit 1
  end

let run () =
  header "converge: network-wide convergence after a link flap vs size";
  paper_note
    [ "the metric that matters is network re-convergence time (§8.3);";
      "each point is N full router stacks on one virtual clock" ];
  let rows = List.map measure (sizes ()) in
  emit rows;
  gate rows;
  pf "   gates passed: every size re-converged with all invariants green\n%!"

(* CI smoke: the 30-router flap cycle must finish inside a wall
   budget. The budget is deliberately loose (CI machines vary); the
   point is catching accidental quadratic blowups in the harness, not
   micro-regressions. The two ceilings are tight, because both counts
   repeat exactly. From the flap to quiescence the cycle dispatches
   1,974 events and 84 XRLs now that BGP passes the RIB only changes to
   what the RIB stores; it took 2,635 events and 264 XRLs when every
   replacement crossed, and 5,056 events when each crossed as a delete
   and an add. Each ceiling sits
   about 10% above its count. *)
let flap_event_ceiling = 2_170
let flap_xrl_ceiling = 92

let smoke () =
  header "converge-smoke: 30-router flap cycle under a wall budget";
  let budget_s = 120. in
  let r = measure ("grid5x6", Topology.grid 5 6) in
  gate [ r ];
  let over what n ceiling =
    if n > ceiling then begin
      Printf.eprintf
        "converge-smoke: GATE FAILED: %d %s from the flap to quiescence, \
         above the %d ceiling\n"
        n what ceiling;
      exit 1
    end
  in
  if r.wall_s > budget_s then begin
    Printf.eprintf "converge-smoke: GATE FAILED: %.1fs wall above %.0fs budget\n"
      r.wall_s budget_s;
    exit 1
  end;
  over "events" r.flap_events flap_event_ceiling;
  over "XRLs" r.flap_xrls flap_xrl_ceiling;
  pf "   gates passed: invariants green, %.1fs wall within %.0fs budget, \
      %d flap events within %d, %d flap XRLs within %d\n%!"
    r.wall_s budget_s r.flap_events flap_event_ceiling r.flap_xrls
    flap_xrl_ceiling
