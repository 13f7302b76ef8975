(* Time-to-network-wide-convergence after a link flap, vs network size.

   The paper argues (§8.3) that what matters for a routing system is
   not raw throughput but how fast the *network* re-converges after an
   event. This benchmark boots N complete router stacks (Rtrmgr, FEA,
   RIB, BGP each) on one virtual clock via the topology harness,
   converges them, reset-cuts a middle link (the far end sees the
   close immediately, withdrawals propagate, the link heals 2 s later
   and the session re-dumps), and measures how much virtual time
   passes until every router's tables stop changing — then verifies
   the converged network against the full invariant set (reachability,
   loop-free forwarding walks, hop-optimality).

   Sizes 3 (chain), 10 (2x5 grid), 30 (5x6 grid), 100 (10x10 grid).
   Virtual seconds measure protocol dynamics (timers, retries,
   propagation rounds); wall seconds measure the harness itself.
   Event counts measure the work: [dispatched] for the whole run, and
   [flap_events] from the flap to quiescence. Both are deterministic
   on the simulated clock. Emits BENCH_converge.json. [smoke] runs only
   the 30-router case as a CI gate: a wall-clock budget, and a ceiling
   on its flap events. *)

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
  boot_converge_s : float; (* virtual time to first quiescence *)
  flap_converge_s : float; (* virtual time from flap to quiescence *)
  wall_s : float;          (* harness wall time for the whole cycle *)
  dispatched : int;
  flap_events : int;       (* events dispatched from the flap to quiescence *)
  violations : string list;
}

let measure (shape, topo) =
  let t0 = Unix.gettimeofday () in
  let w = Simnet.spawn ~seed topo in
  let booted, boot_last = Simnet.converge ~step ~needed ~max_steps w in
  Simnet.check_all w ~tag:"boot";
  (* Flap the middle link: a reset cut that heals 2 s later. *)
  let links = topo.Topology.links in
  let a, b = List.nth links (List.length links / 2) in
  let t_flap = Eventloop.now (Simnet.eventloop w) in
  let ev_flap = Eventloop.events_dispatched (Simnet.eventloop w) in
  Simnet.exec w (Simnet.Link_flap (a, b));
  let reconverged, flap_last = Simnet.converge ~step ~needed ~max_steps w in
  let flap_events = Eventloop.events_dispatched (Simnet.eventloop w) - ev_flap in
  Simnet.check_all w ~tag:"after-flap";
  Simnet.teardown w;
  let viol = Simnet.violations w in
  let viol = if booted && reconverged then viol else "did not converge" :: viol in
  let wall = Unix.gettimeofday () -. t0 in
  let r =
    { routers = Topology.size topo; links = List.length links; shape;
      boot_converge_s = boot_last;
      flap_converge_s = Float.max 0. (flap_last -. t_flap);
      wall_s = wall;
      dispatched = Eventloop.events_dispatched (Simnet.eventloop w);
      flap_events; violations = viol }
  in
  pf "   %-9s %3d routers %3d links: boot %6.2fs, flap->converged %6.2fs \
      (virtual; %.1fs wall, %d events, %d from the flap)%s\n%!"
    shape r.routers r.links r.boot_converge_s r.flap_converge_s wall
    r.dispatched r.flap_events
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
  bpf "  \"sizes\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
       bpf
         "    { \"routers\": %d, \"links\": %d, \"shape\": %S, \
          \"boot_converge_s\": %.2f, \"flap_converge_s\": %.2f, \
          \"wall_s\": %.2f, \"dispatched\": %d, \"flap_events\": %d, \
          \"violations\": %d }%s\n"
         r.routers r.links r.shape r.boot_converge_s r.flap_converge_s
         r.wall_s r.dispatched r.flap_events
         (List.length r.violations)
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
   micro-regressions. The event ceiling is tight, because the count
   repeats exactly: the flap dispatches 2,635 events from the flap to
   quiescence with one message per route change, and 5,056 when every
   replacement crossed each layer as a delete and an add. The ceiling
   sits about 10% above the first. *)
let flap_event_ceiling = 2_900

let smoke () =
  header "converge-smoke: 30-router flap cycle under a wall budget";
  let budget_s = 120. in
  let r = measure ("grid5x6", Topology.grid 5 6) in
  gate [ r ];
  if r.wall_s > budget_s then begin
    Printf.eprintf "converge-smoke: GATE FAILED: %.1fs wall above %.0fs budget\n"
      r.wall_s budget_s;
    exit 1
  end;
  if r.flap_events > flap_event_ceiling then begin
    Printf.eprintf
      "converge-smoke: GATE FAILED: %d events from the flap to quiescence, \
       above the %d ceiling\n"
      r.flap_events flap_event_ceiling;
    exit 1
  end;
  pf "   gates passed: invariants green, %.1fs wall within %.0fs budget, \
      %d flap events within %d\n%!"
    r.wall_s budget_s r.flap_events flap_event_ceiling
