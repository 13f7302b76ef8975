(* Figures 10, 11, 12 — and the conditions around them: route
   propagation latency through the eight profile points of §8.2,
   measured on the full stack (BGP + RIB + FEA wired through XRLs)
   with a real clock.

   - Figure 10: BGP holds no other routes (0% occupancy).
   - Figure 11: BGP preloaded with the synthetic 146,515-route backbone
     feed; test routes arrive on the same peering as the feed.
   - Figure 12: same preload; test routes arrive on a different peering.
   - occupancy-50: the sweep point between Figures 10 and 11.
   - during-load: test routes measured while the full table is still
     streaming in — the latency a flap sees mid-convergence. A fixed
     number of them, paced by the load's progress, so every run traces
     the same count whatever the host's speed.
   - churn: full table plus sustained background flapping on the feed
     peering while test routes are measured.

   Methodology follows the paper: introduce fresh test routes one at a
   time, trace each through the pipeline, report per-point latency
   relative to "Entering BGP". The paper keeps one route installed
   during the empty-table test "to prevent additional interactions
   with the RIB that typically would not happen with the full routing
   table"; we do the same. Deviation: the paper paces routes at one
   per two seconds; we pace at 50 ms to keep the bench short — pacing
   only isolates the samples.

   Results land on stdout and in BENCH_pipeline.json. *)

open Bench_util

let points =
  [ (Bgp_process.pp_entering, "Entering BGP");
    (Bgp_process.pp_queued_rib, "Queued for transmission to the RIB");
    (Bgp_process.pp_sent_rib, "Sent to RIB");
    (Rib.pp_arrived, "Arriving at the RIB");
    (Rib.pp_queued_fea, "Queued for transmission to the FEA");
    (Rib.pp_sent_fea, "Sent to the FEA");
    (Fea.pp_arrived, "Arriving at FEA");
    (Fea.pp_kernel, "Entering kernel") ]

(* --- latency statistics ---------------------------------------------- *)

type pstats = {
  n : int;
  avg : float;
  sd : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    (* nearest-rank on a sorted array *)
    let idx = int_of_float (ceil (q /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))
  end

let pstats_of deltas =
  let st = stats deltas in
  let sorted = Array.of_list deltas in
  Array.sort compare sorted;
  { n = Array.length sorted; avg = st.avg; sd = st.sd; min_v = st.min_v;
    max_v = st.max_v; p50 = percentile sorted 50.0;
    p90 = percentile sorted 90.0; p99 = percentile sorted 99.0 }

(* --- the stack under test -------------------------------------------- *)

type setup = {
  loop : Eventloop.t;
  fea : Fea.t;
  rib : Rib.t;
  bgp : Bgp_process.t;
  feed_peer : Injector.t;
  test_peer : Injector.t;
  feed : Feed.entry array;
  (* Monotonically increasing test-route number, so every measurement
     phase on a shared stack uses fresh prefixes. *)
  mutable next_test : int;
}

(* Unique /24s well away from the feed (which stays under 224/8). *)
let test_net i = Ipv4net.make (Ipv4.of_octets 240 (i / 250) (i mod 250) 0) 24

(* Build the stack with both peerings established and the paper's one
   steady route installed. The feed is generated here but not yet
   announced; phases announce it when (and while) they need it. *)
let build () =
  let loop = Eventloop.create ~mode:`Real () in
  let netsim = Netsim.create ~default_latency:0.0005 loop in
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  (* The peering LAN is reachable: BGP nexthops resolve. *)
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  let bgp =
    Bgp_process.create finder loop ~netsim ~local_as:65000
      ~bgp_id:(addr "10.0.0.1") ()
  in
  let add_peer peer_addr =
    Bgp_process.add_peer bgp
      { (default_peer ~peer_addr:(addr peer_addr)
           ~local_addr:(addr "10.0.0.1") ~peer_as:65100)
        with Bgp_process.passive = Some true }
  in
  add_peer "10.0.0.11";
  add_peer "10.0.0.12";
  Bgp_process.start bgp;
  let injector local =
    Injector.create ~loop ~netsim ~local_addr:(addr local) ~local_as:65100
      ~peer_addr:(addr "10.0.0.1") ~peer_as:65000 ()
  in
  let feed_peer = injector "10.0.0.11" in
  let test_peer = injector "10.0.0.12" in
  Injector.connect feed_peer;
  Injector.connect test_peer;
  run_real_until loop
    (fun () ->
       Injector.established feed_peer && Injector.established test_peer)
    ~timeout_s:20.0 "session establishment";
  (* The paper's steady single route for the empty-table case. Kept
     outside the synthetic feed's 1.x-223.x space so it cannot collide
     with a preloaded prefix. *)
  Injector.announce test_peer ~nexthop:(addr "10.0.0.11")
    [ net "250.0.2.0/24" ];
  let s =
    { loop; fea; rib; bgp; feed_peer; test_peer;
      feed = Feed.generate Feed.paper_table_size; next_test = 0 }
  in
  run_real_until loop
    (fun () ->
       Bgp_process.route_count bgp >= 1 && Rib.route_count rib >= 2
       && Fib.size (Fea.fib fea) >= 2)
    ~timeout_s:60.0 "initial settling";
  s

let settled s ~preload =
  Bgp_process.route_count s.bgp > preload
  && Bgp_process.inbound_backlog s.bgp = 0
  && Bgp_process.fanout_queue_length s.bgp = 0
  && Rib.fea_queue_length s.rib = 0
  && Rib.route_count s.rib >= preload + 2
  && Fib.size (Fea.fib s.fea) >= preload + 2

type load_timing = { routes : int; bgp_s : float; settled_s : float }

(* Announce the first [n] feed routes and wait for the whole stack to
   settle: BGP's fanout drained, the RIB holding every winner plus the
   connected route, and the FIB in sync. [each_turn] runs between loop
   turns all the while. *)
let preload ?(each_turn = ignore) s n =
  let t0 = Unix.gettimeofday () in
  let nets =
    Array.to_list (Array.map (fun e -> e.Feed.net) (Array.sub s.feed 0 n))
  in
  Injector.announce s.feed_peer ~nexthop:(addr "10.0.0.11") nets;
  run_real_until s.loop
    (fun () -> each_turn (); Bgp_process.route_count s.bgp >= n)
    ~timeout_s:600.0 "preload";
  let bgp_s = Unix.gettimeofday () -. t0 in
  run_real_until s.loop
    (fun () -> each_turn (); settled s ~preload:n)
    ~timeout_s:600.0 "stack settling";
  { routes = n; bgp_s; settled_s = Unix.gettimeofday () -. t0 }

let teardown s =
  Bgp_process.shutdown s.bgp;
  Rib.shutdown s.rib;
  Fea.shutdown s.fea;
  ignore s.feed_peer;
  ignore s.test_peer

(* --- tracing test routes through the profile points ------------------ *)

(* Incremental record consumption: the point ring is drained into a
   hash index as the measurement runs, so bulk phases (during-load,
   churn) can log millions of feed records without evicting the test
   routes' — and extraction is O(records), not O(routes x records) as
   a per-route scan over the ring would be. Test routes are matched by
   prefix, so no record's text is ever formatted. *)
type tracer = {
  expected : (Ipv4net.t, unit) Hashtbl.t; (* the test routes *)
  times : (Ipv4net.t * string, float) Hashtbl.t; (* (net, point) -> time *)
}

let make_tracer ~base ~n =
  let expected = Hashtbl.create (2 * n) in
  for i = base + 1 to base + n do
    Hashtbl.replace expected (test_net i) ()
  done;
  { expected; times = Hashtbl.create (16 * n) }

(* Announcements only: the figures time a route's arrival. *)
let absorb tr records =
  List.iter
    (fun (r : Telemetry.Profile.record) ->
       if r.verb = Add && Hashtbl.mem tr.expected r.net then begin
         let key = (r.net, r.point) in
         if not (Hashtbl.mem tr.times key) then
           Hashtbl.add tr.times key r.time
       end)
    records

(* Per-route deltas relative to "Entering BGP", as per-point lists. *)
let extract tr ~base ~n =
  let per_point = Hashtbl.create 16 in
  let traced = ref 0 in
  for i = base + 1 to base + n do
    let tag = test_net i in
    match Hashtbl.find_opt tr.times (tag, Bgp_process.pp_entering) with
    | None -> ()
    | Some t0 ->
      let complete = ref true in
      List.iter
        (fun (point, _) ->
           if point <> Bgp_process.pp_entering then
             match Hashtbl.find_opt tr.times (tag, point) with
             | Some tp ->
               let ms = (tp -. t0) *. 1000.0 in
               let cur =
                 Option.value (Hashtbl.find_opt per_point point) ~default:[]
               in
               Hashtbl.replace per_point point (ms :: cur)
             | None -> complete := false)
        points;
      if !complete then incr traced
  done;
  let rows =
    List.filter_map
      (fun (point, label) ->
         if point = Bgp_process.pp_entering then None
         else
           Some
             ( point, label,
               pstats_of
                 (Option.value (Hashtbl.find_opt per_point point) ~default:[])
             ))
      points
  in
  (!traced, rows)

(* Sleep by arming a loop timer, not by polling a wall-clock deadline:
   with no timer due, the loop's idle poll sleeps in 100 ms slices, and
   a predicate-only wait would stretch every 35 ms pacing gap to
   ~100 ms (quadrupling the bench's wall time). *)
let wall_sleep loop seconds =
  let woke = ref false in
  ignore (Eventloop.after loop seconds (fun () -> woke := true));
  Eventloop.run ~until:(fun () -> !woke) loop

(* --- background churn ------------------------------------------------ *)

(* Rotates through the loaded feed withdrawing small batches and
   re-announcing them shortly after, producing a steady stream of real
   route changes through the whole pipeline while test routes are
   measured. Each [step] call withdraws one batch and re-announces the
   batch withdrawn two steps earlier. *)
type churner = {
  s : setup;
  batch : int;
  mutable cursor : int;
  pending : Ipv4net.t list Queue.t; (* withdrawn, awaiting re-announce *)
}

let make_churner s ~batch = { s; batch; cursor = 0; pending = Queue.create () }

let churn_step c =
  let n = Array.length c.s.feed in
  let nets =
    List.init c.batch (fun i -> c.s.feed.((c.cursor + i) mod n).Feed.net)
  in
  c.cursor <- (c.cursor + c.batch) mod n;
  Injector.withdraw c.s.feed_peer nets;
  Queue.push nets c.pending;
  if Queue.length c.pending > 2 then
    Injector.announce c.s.feed_peer ~nexthop:(addr "10.0.0.11")
      (Queue.pop c.pending)

let churn_finish c =
  (* Restore whatever is still withdrawn so the table is whole again. *)
  Queue.iter
    (fun nets ->
       Injector.announce c.s.feed_peer ~nexthop:(addr "10.0.0.11") nets)
    c.pending;
  Queue.clear c.pending

(* --- one measurement phase ------------------------------------------- *)

type experiment = {
  name : string;
  descr : string;
  preload_n : int;
  occupancy_pct : int;
  peering : string; (* which peering carries the test routes *)
  churn_rps : int;
  during_load : bool;
  n_routes : int;
  traced : int;
  rows : (string * string * pstats) list;
}

(* Trace [n] fresh test routes through all eight points: [flap tr
   base] flaps [test_net (base + 1)] to [test_net (base + n)], absorbing
   the records into [tr] as it goes, and the stragglers are absorbed
   after a 0.3 s settle. Returns what [flap] returned, the traced count
   and the rows. *)
let trace_test_routes s ~n flap =
  let base = s.next_test in
  s.next_test <- s.next_test + n;
  let tr = make_tracer ~base ~n in
  ignore (Telemetry.Profile.drain ());
  Telemetry.Profile.enable_all ();
  let result = flap tr base in
  wall_sleep s.loop 0.3;
  absorb tr (Telemetry.Profile.drain ());
  Telemetry.Profile.disable_all ();
  let traced, rows = extract tr ~base ~n in
  (result, traced, rows)

(* Flap [n] fresh test routes one at a time on [peer]. [churn], when
   given, is stepped twice per flap cycle. *)
let flap_routes s ~peer ~n ?churn () =
  let step () = Option.iter churn_step churn in
  let (), traced, rows =
    trace_test_routes s ~n (fun tr base ->
        for i = base + 1 to base + n do
          step ();
          Injector.announce peer ~nexthop:(addr "10.0.0.11") [ test_net i ];
          wall_sleep s.loop 0.035;
          absorb tr (Telemetry.Profile.drain ());
          step ();
          Injector.withdraw peer [ test_net i ];
          wall_sleep s.loop 0.015;
          absorb tr (Telemetry.Profile.drain ())
        done)
  in
  Option.iter churn_finish churn;
  (n, traced, rows)

(* Test routes flapped while the table loads. *)
let during_load_flaps = 100

(* Load the whole feed and flap [during_load_flaps] test routes on
   [peer] meanwhile: the k-th (from 0) is announced once k/100 of the
   table is in the FIB and the one before it has reached the kernel
   point, which is when that one is withdrawn. So every run traces the
   same count at the same points of the load, whatever the host's
   speed. Returns the count, the traced count, the rows and the load's
   timing. *)
let flap_during_load s ~peer =
  let n = during_load_flaps and table = Array.length s.feed in
  let in_fib0 = Fib.size (Fea.fib s.fea) in
  let load, traced, rows =
    trace_test_routes s ~n (fun tr base ->
        let flapped = ref 0 in
        let test k = test_net (base + k) in
        let each_turn () =
          absorb tr (Telemetry.Profile.drain ());
          if !flapped < n
             && (!flapped = 0 || Hashtbl.mem tr.times (test !flapped, Fea.pp_kernel))
             && (Fib.size (Fea.fib s.fea) - in_fib0) * n >= !flapped * table
          then begin
            if !flapped > 0 then Injector.withdraw peer [ test !flapped ];
            incr flapped;
            Injector.announce peer ~nexthop:(addr "10.0.0.11") [ test !flapped ]
          end
        in
        let load = preload ~each_turn s table in
        if !flapped < n then
          failwith
            (Printf.sprintf "the table loaded before %d of its %d test flaps"
               (n - !flapped) n);
        Injector.withdraw peer [ test n ];
        load)
  in
  (n, traced, rows, load)

let print_rows ~traced ~n_routes rows =
  pf "\ntraced %d/%d test routes end to end\n" traced n_routes;
  pf "%-38s %8s %8s %8s %8s %8s %8s  (ms)\n" "Profile Point" "Avg" "SD" "P50"
    "P90" "P99" "Max";
  pf "%-38s %8s %8s %8s %8s %8s %8s\n" "Entering BGP" "-" "-" "-" "-" "-" "-";
  List.iter
    (fun (_, label, st) ->
       pf "%-38s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n" label st.avg st.sd
         st.p50 st.p90 st.p99 st.max_v)
    rows

(* CI gate on head-of-line blocking: the median flap measured while the
   full table streams in must stay within [during_gate_ratio] x the
   idle median, or under an absolute floor. The floor covers loop-turn
   granularity: the flap crosses the pipeline in a handful of turns,
   each of which legitimately carries one bounded bulk slice of the
   load, so a few milliseconds is the physics of sharing the loop —
   what the gate must catch is the pre-lane behaviour, where the flap
   queued behind the entire remaining table (p50 in the seconds). The
   floor is ~7x the p50 measured on a loaded container, the same
   headroom policy as the 60 s full-load budget. *)
let during_gate_ratio = 10.0
let during_gate_floor_ms = 10.0

(* --- JSON output ----------------------------------------------------- *)

let emit_json ~path ~load ?gate experiments =
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"bench\": \"pipeline\",\n";
  bpf "  \"table_size\": %d,\n" Feed.paper_table_size;
  bpf "  \"pacing_ms\": 50,\n";
  (match gate with
   | Some (idle_p50, during_p50, limit) ->
     bpf
       "  \"during_load_gate\": { \"idle_p50_ms\": %.4f, \"during_p50_ms\": %.4f, \"limit_ms\": %.4f, \"ratio\": %.1f, \"floor_ms\": %.1f },\n"
       idle_p50 during_p50 limit during_gate_ratio during_gate_floor_ms
   | None -> ());
  bpf "  \"paper_ms\": { \"fig10_kernel_avg\": 3.374, \"fig11_kernel_avg\": 3.632, \"fig12_kernel_avg\": 4.417 },\n";
  (match load with
   | Some l ->
     bpf
       "  \"initial_load\": { \"routes\": %d, \"bgp_s\": %.3f, \"settled_s\": %.3f, \"routes_per_s\": %.0f },\n"
       l.routes l.bgp_s l.settled_s
       (float_of_int l.routes /. l.settled_s)
   | None -> ());
  bpf "  \"experiments\": [\n";
  List.iteri
    (fun i e ->
       bpf "    {\n";
       bpf "      \"name\": %S,\n" e.name;
       bpf "      \"description\": %S,\n" e.descr;
       bpf "      \"preload\": %d,\n" e.preload_n;
       bpf "      \"occupancy_pct\": %d,\n" e.occupancy_pct;
       bpf "      \"peering\": %S,\n" e.peering;
       bpf "      \"churn_rps\": %d,\n" e.churn_rps;
       bpf "      \"during_load\": %b,\n" e.during_load;
       bpf "      \"routes\": %d,\n" e.n_routes;
       bpf "      \"traced\": %d,\n" e.traced;
       bpf "      \"points\": [\n";
       let n_rows = List.length e.rows in
       List.iteri
         (fun j (point, label, st) ->
            bpf
              "        { \"point\": %S, \"label\": %S, \"samples\": %d, \"avg_ms\": %.4f, \"sd_ms\": %.4f, \"min_ms\": %.4f, \"max_ms\": %.4f, \"p50_ms\": %.4f, \"p90_ms\": %.4f, \"p99_ms\": %.4f }%s\n"
              point label st.n st.avg st.sd st.min_v st.max_v st.p50 st.p90
              st.p99
              (if j = n_rows - 1 then "" else ","))
         e.rows;
       bpf "      ]\n";
       bpf "    }%s\n" (if i = List.length experiments - 1 then "" else ","))
    experiments;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "\nwrote %s\n" path

(* --- the experiments ------------------------------------------------- *)

let kernel_avg e =
  match
    List.find_opt (fun (point, _, _) -> point = Fea.pp_kernel) e.rows
  with
  | Some (_, _, st) -> st.avg
  | None -> nan

let kernel_p50 e =
  match
    List.find_opt (fun (point, _, _) -> point = Fea.pp_kernel) e.rows
  with
  | Some (_, _, st) -> st.p50
  | None -> nan

(* Single-figure entry points for the bench registry. *)

let run_single ~title ~paper_rows ~preload_n ~same_peering () =
  header title;
  paper_note paper_rows;
  let s = build () in
  if preload_n > 0 then ignore (preload s preload_n);
  let peer = if same_peering then s.feed_peer else s.test_peer in
  let n, traced, rows = flap_routes s ~peer ~n:255 () in
  print_rows ~traced ~n_routes:n rows;
  teardown s

let run_fig10 () =
  run_single ~title:"Figure 10: route propagation latency, no initial routes"
    ~paper_rows:[ "Paper avg to kernel: 3.374 ms." ] ~preload_n:0
    ~same_peering:true ()

let run_fig11 () =
  run_single
    ~title:"Figure 11: latency with 146,515 initial routes (same peering)"
    ~paper_rows:[ "Paper avg to kernel: 3.632 ms." ]
    ~preload_n:Feed.paper_table_size ~same_peering:true ()

let run_fig12 () =
  run_single
    ~title:"Figure 12: latency with 146,515 initial routes (different peering)"
    ~paper_rows:[ "Paper avg to kernel: 4.417 ms." ]
    ~preload_n:Feed.paper_table_size ~same_peering:false ()

let run_all () =
  let results = ref [] in
  let push e =
    results := e :: !results;
    e
  in
  (* Stack A carries figure 10, the during-load phase, figure 11 and
     the churn phase, in that order: each leaves the table exactly
     where the next needs it (empty -> loading -> loaded). *)
  let s = build () in

  header "Figure 10: route propagation latency, no initial routes";
  paper_note
    [ "255 test routes through 8 profile points, empty BGP table.";
      "Paper avg to kernel: 3.374 ms (their IPC crosses real processes)." ];
  let n, traced, rows = flap_routes s ~peer:s.feed_peer ~n:255 () in
  print_rows ~traced ~n_routes:n rows;
  let fig10 =
    push
      { name = "fig10"; descr = "empty table, test routes on the feed peering";
        preload_n = 0; occupancy_pct = 0; peering = "same"; churn_rps = 0;
        during_load = false; n_routes = n; traced; rows }
  in

  header "During load: latency while the 146,515-route table streams in";
  paper_note
    [ "Not a paper figure: the paper measures before and after load;";
      "this phase measures the flap latency a route sees mid-convergence." ];
  let n, traced, rows, load = flap_during_load s ~peer:s.test_peer in
  print_rows ~traced ~n_routes:n rows;
  pf "\ninitial load: %d routes, BGP in %.2fs, settled through FIB in %.2fs (%.0f routes/s)\n"
    load.routes load.bgp_s load.settled_s
    (float_of_int load.routes /. load.settled_s);
  (* CI gate: a full-table load slower than this means a pipeline
     regression (the bound is ~6x the measured time on a loaded
     container). *)
  if load.settled_s > 60.0 then
    failwith
      (Printf.sprintf "full-table load took %.1fs, budget is 60s"
         load.settled_s);
  let during =
    push
      { name = "during_load";
        descr =
          "test routes on a second peering while the table loads, one \
           as each 1% of it reaches the FIB";
        preload_n = Feed.paper_table_size; occupancy_pct = 100;
        peering = "different"; churn_rps = 0; during_load = true;
        n_routes = n; traced; rows }
  in
  (* CI gate: a flap mid-load rides the urgent lane past the bulk
     backlog; if it queues behind the table again, fail loudly. *)
  let idle_p50 = kernel_p50 fig10 in
  let during_p50 = kernel_p50 during in
  let gate_limit =
    Float.max (during_gate_ratio *. idle_p50) during_gate_floor_ms
  in
  pf "\nduring-load gate: p50 to kernel %.3f ms (idle %.3f ms, limit %.3f ms)\n"
    during_p50 idle_p50 gate_limit;
  if not (during_p50 <= gate_limit) (* also catches nan: no traced routes *)
  then
    failwith
      (Printf.sprintf
         "during-load p50 %.3f ms exceeds gate %.3f ms (%.0fx idle p50 %.3f ms, floor %.0f ms): head-of-line blocking is back"
         during_p50 gate_limit during_gate_ratio idle_p50
         during_gate_floor_ms);

  header "Figure 11: latency with 146,515 initial routes (same peering)";
  paper_note
    [ "Same measurement over a full backbone table, test routes on the";
      "same peering. Paper avg to kernel: 3.632 ms - barely above the";
      "empty-table case; latency must not degrade with table size." ];
  let n, traced, rows = flap_routes s ~peer:s.feed_peer ~n:255 () in
  print_rows ~traced ~n_routes:n rows;
  let fig11 =
    push
      { name = "fig11"; descr = "full table, test routes on the feed peering";
        preload_n = Feed.paper_table_size; occupancy_pct = 100;
        peering = "same"; churn_rps = 0; during_load = false;
        n_routes = n; traced; rows }
  in

  header "Churn: full table plus sustained background flapping";
  paper_note
    [ "Not a paper figure: the feed peering withdraws and re-announces";
      "batches of real table routes (~400 updates/s) while test routes";
      "are measured on the second peering." ];
  let churn = make_churner s ~batch:5 in
  let n, traced, rows =
    flap_routes s ~peer:s.test_peer ~n:120 ~churn ()
  in
  print_rows ~traced ~n_routes:n rows;
  let churned =
    push
      { name = "churn";
        descr = "full table with ~400 background updates/s from the feed";
        preload_n = Feed.paper_table_size; occupancy_pct = 100;
        peering = "different"; churn_rps = 400; during_load = false;
        n_routes = n; traced; rows }
  in
  teardown s;

  header "Occupancy 50%: latency with 73,257 initial routes";
  paper_note
    [ "The sweep point between Figures 10 and 11: latency should be";
      "flat in table size, not halfway to some degraded value." ];
  let s = build () in
  ignore (preload s (Feed.paper_table_size / 2));
  let n, traced, rows = flap_routes s ~peer:s.feed_peer ~n:128 () in
  print_rows ~traced ~n_routes:n rows;
  let occ50 =
    push
      { name = "occupancy50";
        descr = "half table, test routes on the feed peering";
        preload_n = Feed.paper_table_size / 2; occupancy_pct = 50;
        peering = "same"; churn_rps = 0; during_load = false;
        n_routes = n; traced; rows }
  in
  teardown s;

  header "Figure 12: latency with 146,515 initial routes (different peering)";
  paper_note
    [ "Test routes now arrive via a second peering, exercising different";
      "code paths. Paper avg to kernel: 4.417 ms." ];
  let s = build () in
  ignore (preload s Feed.paper_table_size);
  let n, traced, rows = flap_routes s ~peer:s.test_peer ~n:255 () in
  print_rows ~traced ~n_routes:n rows;
  let fig12 =
    push
      { name = "fig12"; descr = "full table, test routes on a second peering";
        preload_n = Feed.paper_table_size; occupancy_pct = 100;
        peering = "different"; churn_rps = 0; during_load = false;
        n_routes = n; traced; rows }
  in
  teardown s;

  header "Figures 10-12 shape summary";
  let k10 = kernel_avg fig10
  and k50 = kernel_avg occ50
  and k11 = kernel_avg fig11
  and k12 = kernel_avg fig12
  and kload = kernel_avg during
  and kchurn = kernel_avg churned in
  pf "avg latency to kernel: empty %.3f ms | 50%% %.3f ms | full/same %.3f ms | full/diff %.3f ms\n"
    k10 k50 k11 k12;
  pf "                       during load %.3f ms | under churn %.3f ms\n" kload
    kchurn;
  pf "full-table vs empty-table ratio: %.2fx (paper: 1.08x - no degradation)\n"
    (k11 /. k10);
  pf "different-peering vs same: %.2fx (paper: 1.22x)\n" (k12 /. k11);
  emit_json ~path:"BENCH_pipeline.json" ~load:(Some load)
    ~gate:(idle_p50, during_p50, gate_limit) (List.rev !results)
