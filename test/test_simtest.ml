(* Tests for the simulation harness itself: determinism, the scenario
   text form, the invariant checkers, and the fuzz/shrink driver. *)

let check = Alcotest.check

let at = Simtest.at

let assert_green what (o : Simtest.outcome) =
  match o.Simtest.violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %s" what
      (List.length o.Simtest.violations) v

(* Fuzz [count] seeds from 0 under [opts] and demand a failure whose
   shrunk form has at most 2 events and still fails, both directly and
   after a print/parse roundtrip. Returns the shrunk scenario. *)
let fuzz_and_shrink ?topo ~opts ~count what =
  let r = Simtest.fuzz ~opts ?topo ~base:0 ~count () in
  match r.Simtest.failed with
  | None -> Alcotest.failf "fuzzer missed %s in %d seeds" what count
  | Some (o, minimal) ->
    check Alcotest.bool "original outcome was red" true
      (o.Simtest.violations <> []);
    check Alcotest.bool "shrunk to at most 2 events" true
      (List.length minimal.Simtest.events <= 2);
    let fails sc = (Simtest.run ~opts sc).Simtest.violations <> [] in
    check Alcotest.bool "shrunk scenario still fails" true (fails minimal);
    (match Simtest.of_string (Simtest.to_string minimal) with
     | Error e -> Alcotest.failf "counterexample does not reparse: %s" e
     | Ok sc ->
       check Alcotest.bool "reparsed counterexample still fails" true
         (fails sc));
    minimal

(* A light scenario so each run stays fast: one fault, one mid-run
   checkpoint. *)
let light =
  Simtest.scenario ~seed:11 ~horizon:100.
    [ at 20. (Inject ("isp", 5)); at 40. (Flap "isp"); at 70. Check ]

let test_benign_scenario_green () =
  assert_green "benign" (Simtest.run light)

let test_same_seed_identical_trace () =
  let a = Simtest.run light and b = Simtest.run light in
  assert_green "first" a;
  check Alcotest.bool "byte-identical traces" true
    (String.equal a.Simtest.trace b.Simtest.trace);
  check Alcotest.int "same dispatch count" a.Simtest.dispatched
    b.Simtest.dispatched

let test_different_seed_different_trace () =
  (* Not a hard guarantee for arbitrary pairs, but these two schedules
     differ in feed content, so their traces must. *)
  let a = Simtest.run (Simtest.generate ~seed:1) in
  let b = Simtest.run (Simtest.generate ~seed:2) in
  check Alcotest.bool "seeds explore different executions" false
    (String.equal a.Simtest.trace b.Simtest.trace)

let test_kill_restart_recovers () =
  let sc =
    Simtest.scenario ~seed:7 ~horizon:110.
      [ at 30. (Kill ("dut", `Fea)); at 45. (Restart ("dut", `Fea)) ]
  in
  assert_green "kill+restart fea" (Simtest.run sc)

let test_kill_restart_rib_recovers () =
  (* The RIB itself is now in the kill set.  A dead-and-reborn RIB must
     come back with every protocol's table replayed into it, so the
     quiescent invariants (including the per-protocol origin counts and
     the reverse FIB->RIB check) hold at the horizon. *)
  let sc =
    Simtest.scenario ~seed:7 ~horizon:110.
      [ at 15. (Inject ("isp", 8));
        at 40. (Kill ("dut", `Rib));
        at 55. (Restart ("dut", `Rib)) ]
  in
  assert_green "kill+restart rib" (Simtest.run sc)

let test_rib_reborn_while_fea_down_recovers () =
  (* Found by the topology fuzzer (seed 32) and reproducible in the
     classic world: kill the FEA, then kill and restart the RIB while
     the FEA is still down.  The reborn RIB must initialise its FEA
     liveness from the Finder (not assume up), hold FIB pushes, and
     replay the full FIB when the end-of-scenario repair finally
     brings the FEA back. *)
  let sc =
    Simtest.scenario ~seed:32 ~horizon:110.
      [ at 30. (Kill ("dut", `Fea));
        at 50. (Kill ("dut", `Rib));
        at 65. (Restart ("dut", `Rib)) ]
  in
  assert_green "rib reborn while fea down" (Simtest.run sc)

let test_text_form_roundtrip () =
  let sc =
    Simtest.scenario ~seed:99
      ~background:{ Simtest.dup = 0.05; delay = 0.001; jitter = 0.002 }
      ~xrl_latency:0.004 ~horizon:90.
      [ at 20. (Kill ("dut", `Ospf));
        at 31.5 (Restart ("dut", `Ospf));
        at 40.25 (Flap "legacy");
        at 50. (Inject ("isp", 12));
        at 55. (Surge ("isp", 9));
        at 60. (Link_sever ("dut", "isp"));
        at 70. (Delay_burst 3.5);
        at 80. Check ]
  in
  match Simtest.of_string (Simtest.to_string sc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok sc' ->
    check Alcotest.string "print/parse fixpoint" (Simtest.to_string sc)
      (Simtest.to_string sc');
    check Alcotest.bool "structurally equal" true (sc = sc')

let test_injected_bug_caught_deterministically () =
  (* Disabling the RIB's replay-on-FEA-rebirth must turn a plain
     kill+restart scenario red — and only under the bad option. *)
  let sc =
    Simtest.scenario ~seed:3 ~horizon:110.
      [ at 15. (Inject ("isp", 6)); at 40. (Kill ("dut", `Fea)) ]
  in
  assert_green "healthy recovery" (Simtest.run sc);
  let bad = { Simtest.default_opts with Simtest.fea_rebirth_replay = false } in
  let o = Simtest.run ~opts:bad sc in
  if o.Simtest.violations = [] then
    Alcotest.fail "rib-no-replay bug escaped the invariant checkers"

let test_fuzz_finds_and_shrinks_injected_bug () =
  (* The essential fault is an FEA kill with no paired restart; repair
     restarts it without replay. *)
  let bad = { Simtest.default_opts with Simtest.fea_rebirth_replay = false } in
  ignore (fuzz_and_shrink ~opts:bad ~count:40 "rib-no-replay")

let test_dataplane_ttl_leak_caught () =
  (* Swapping DecTtl for the leaky variant must turn even an eventless
     scenario red: the forwarding invariant's TTL-expired probe leaks
     out of the router instead of dying in the graph. *)
  let sc = Simtest.scenario ~seed:5 ~horizon:60. [] in
  assert_green "healthy data plane" (Simtest.run sc);
  let bad = { Simtest.default_opts with Simtest.dataplane_ttl_leak = true } in
  let o = Simtest.run ~opts:bad sc in
  match o.Simtest.violations with
  | [] -> Alcotest.fail "dataplane-ttl-leak bug escaped the invariants"
  | v :: _ ->
    check Alcotest.bool "violation names the TTL leak" true
      (Astring.String.is_infix ~affix:"TTL-expired" v)

let test_fuzz_shrinks_dataplane_bug ~topo () =
  let bad = { Simtest.default_opts with Simtest.dataplane_ttl_leak = true } in
  let minimal = fuzz_and_shrink ~topo ~opts:bad ~count:3 "dataplane-ttl-leak" in
  (* The bug is independent of the fault schedule, so shrinking must
     strip every event and still fail. *)
  check Alcotest.int "shrunk to an empty schedule" 0
    (List.length minimal.Simtest.events)

let test_lane_reorder_caught () =
  (* A surge staged through BGP's sliced inbound path ends with an
     urgent withdrawal chasing a still-queued bulk add of the same
     prefix. With the per-prefix lane guard (the default) the
     withdrawal is demoted behind the add and everything converges;
     with [bgp_lane_unordered] the withdrawal overtakes it, the RIB
     applies delete-then-add, and BGP and the RIB disagree about the
     prefix forever after. *)
  let sc =
    Simtest.scenario ~seed:3 ~horizon:60. [ at 30. (Surge ("isp", 10)) ]
  in
  assert_green "ordered lanes" (Simtest.run sc);
  let bad = { Simtest.default_opts with Simtest.bgp_lane_unordered = true } in
  let o = Simtest.run ~opts:bad sc in
  match o.Simtest.violations with
  | [] -> Alcotest.fail "lane-reorder bug escaped the invariant checkers"
  | v :: _ ->
    check Alcotest.bool "violation names the BGP/RIB disagreement" true
      (Astring.String.is_infix ~affix:"RIB ebgp+ibgp origin" v)

let test_fuzz_finds_and_shrinks_lane_reorder () =
  let bad = { Simtest.default_opts with Simtest.bgp_lane_unordered = true } in
  let minimal = fuzz_and_shrink ~opts:bad ~count:10 "lane-reorder" in
  (* Only a surge provokes the race, so shrinking must keep one. *)
  check Alcotest.bool "shrunk scenario keeps a surge" true
    (List.exists
       (fun e -> match e.Simtest.op with Simtest.Surge _ -> true | _ -> false)
       minimal.Simtest.events)

let test_rib_no_resync_caught () =
  (* Protocols that mark a reborn RIB up but never replay their tables
     into it leave the new RIB empty while BGP/RIP/OSPF still hold
     routes.  The per-protocol origin-count invariant must name the
     disagreement; the healthy default must stay green on the same
     schedule. *)
  let sc =
    Simtest.scenario ~seed:7 ~horizon:110.
      [ at 15. (Inject ("isp", 8));
        at 40. (Kill ("dut", `Rib));
        at 55. (Restart ("dut", `Rib)) ]
  in
  assert_green "healthy rib rebirth" (Simtest.run sc);
  let bad = { Simtest.default_opts with Simtest.rib_resync = false } in
  let o = Simtest.run ~opts:bad sc in
  match o.Simtest.violations with
  | [] -> Alcotest.fail "rib-no-resync bug escaped the invariant checkers"
  | v :: _ ->
    check Alcotest.bool "violation names an origin-count disagreement" true
      (Astring.String.is_infix ~affix:"origin" v)

let test_fuzz_finds_and_shrinks_rib_no_resync () =
  let bad = { Simtest.default_opts with Simtest.rib_resync = false } in
  let minimal = fuzz_and_shrink ~opts:bad ~count:40 "rib-no-resync" in
  (* Only a RIB kill provokes this bug, so the counterexample must
     keep one; everything else should shrink away. *)
  check Alcotest.bool "shrunk scenario keeps a rib kill" true
    (List.exists
       (fun e ->
         match e.Simtest.op with Simtest.Kill (_, `Rib) -> true | _ -> false)
       minimal.Simtest.events)

(* --- the topology world ------------------------------------------------ *)

let test_topo_scenario_green () =
  (* A mixed-protocol network with a component kill and a link flap:
     everything must re-converge and pass the network-wide checks. *)
  let topo = Topology.mixed 5 in
  let sc =
    Simtest.scenario ~seed:19 ~horizon:110. ~topology:topo
      [ at 25. (Kill ("r2", `Bgp));
        at 40. (Restart ("r2", `Bgp));
        at 60. (Link_flap ("r1", "r2")) ]
  in
  assert_green "topology scenario" (Simtest.run sc)

let test_topo_same_seed_identical_trace () =
  let sc =
    Simtest.scenario ~seed:31 ~horizon:100.
      ~topology:(Topology.ibgp_fullmesh 4)
      [ at 30. (Link_flap ("r1", "r2")); at 70. Check ]
  in
  let a = Simtest.run sc and b = Simtest.run sc in
  assert_green "first topo run" a;
  check Alcotest.bool "byte-identical traces" true
    (String.equal a.Simtest.trace b.Simtest.trace);
  check Alcotest.int "same dispatch count" a.Simtest.dispatched
    b.Simtest.dispatched

let test_topo_text_form_roundtrip () =
  let sc =
    Simtest.scenario ~seed:77
      ~background:{ Simtest.dup = 0.05; delay = 0.; jitter = 0.01 }
      ~xrl_latency:0.002 ~horizon:90.
      ~topology:(Topology.generate ~seed:5)
      [ at 20. (Kill ("r1", `Rib));
        at 33.5 (Restart ("r1", `Rib));
        at 41. (Link_sever ("r1", "r2"));
        at 55. (Link_heal ("r1", "r2"));
        at 62. (Link_flap ("r1", "r2"));
        at 80. Check ]
  in
  match Simtest.of_string (Simtest.to_string sc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok sc' ->
    check Alcotest.string "print/parse fixpoint" (Simtest.to_string sc)
      (Simtest.to_string sc');
    check Alcotest.bool "topology survived" true
      (Topology.equal sc'.Simtest.topology (Topology.generate ~seed:5));
    check Alcotest.bool "structurally equal" true (sc = sc')

let test_mesh_partition_heal_caught () =
  (* The injected bug: a re-established BGP session is never
     re-dumped, so routes withdrawn during a partition stay missing
     after the heal. A single link flap on a two-router network
     exposes it; the healthy default must stay green on the same
     schedule. *)
  let sc =
    Simtest.scenario ~seed:1 ~horizon:110. ~topology:(Topology.chain 2)
      [ at 30. (Link_flap ("r1", "r2")) ]
  in
  assert_green "healthy redump" (Simtest.run sc);
  let bad = { Simtest.default_opts with Simtest.bgp_redump = false } in
  let o = Simtest.run ~opts:bad sc in
  match o.Simtest.violations with
  | [] -> Alcotest.fail "mesh-partition-heal bug escaped the invariants"
  | v :: _ ->
    check Alcotest.bool "violation names lost reachability" true
      (Astring.String.is_infix ~affix:"should reach" v)

let test_topo_fuzz_finds_and_shrinks_mesh_partition_heal () =
  let bad = { Simtest.default_opts with Simtest.bgp_redump = false } in
  let minimal =
    fuzz_and_shrink ~topo:true ~opts:bad ~count:60 "mesh-partition-heal"
  in
  (* The topology itself must have shrunk: a handful of routers and
     links, and a schedule stripped to the essential link fault. *)
  let topo = minimal.Simtest.topology in
  check Alcotest.bool "shrunk to at most 3 routers" true
    (Topology.size topo <= 3);
  check Alcotest.bool "shrunk to at most 2 links" true
    (List.length topo.Topology.links <= 2);
  check Alcotest.bool "a link fault survived shrinking" true
    (List.exists
       (fun e ->
         match e.Simtest.op with
         | Simtest.Link_flap _ | Simtest.Link_sever _ -> true
         | _ -> false)
       minimal.Simtest.events)

(* The injected bugs reach every router the runner boots, so generated
   networks must catch them too, not just the classic world. *)
let test_topo_fuzz_finds_and_shrinks_rib_no_replay () =
  let bad = { Simtest.default_opts with Simtest.fea_rebirth_replay = false } in
  ignore (fuzz_and_shrink ~topo:true ~opts:bad ~count:10 "rib-no-replay")

(* docs/TESTING.md shows scenario files; every fenced block that opens
   with a [seed] line must parse, so the documented replay recipe
   cannot rot. cwd is the test directory under `dune runtest` but the
   workspace root under `dune exec`. *)
let test_documented_scenarios_parse () =
  let path =
    match
      List.find_opt Sys.file_exists
        [ "docs/TESTING.md"; "../docs/TESTING.md"; "../../docs/TESTING.md";
          "../../../docs/TESTING.md" ]
    with
    | Some p -> p
    | None -> Alcotest.fail "docs/TESTING.md not found"
  in
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Splitting on the fence leaves block bodies at odd indices, each
     led by its (here empty) info string. *)
  let scenarios =
    Astring.String.cuts ~sep:"```" doc
    |> List.filteri (fun i _ -> i mod 2 = 1)
    |> List.filter (fun block ->
           match String.split_on_char '\n' block with
           | "" :: first :: _ -> Astring.String.is_prefix ~affix:"seed " first
           | _ -> false)
  in
  check Alcotest.bool "docs show at least two scenario files" true
    (List.length scenarios >= 2);
  List.iter
    (fun block ->
      match Simtest.of_string block with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "documented scenario does not parse: %s\n%s" e block)
    scenarios

let test_topo_fuzz_batch_green () =
  let r = Simtest.fuzz ~topo:true ~base:0 ~count:15 () in
  check Alcotest.int "all topology seeds ran" 15 r.Simtest.seeds_run;
  match r.Simtest.failed with
  | None -> ()
  | Some (o, minimal) ->
    Alcotest.failf "topology seed %d failed (%s); minimal:\n%s"
      o.Simtest.ran.Simtest.seed
      (String.concat "; " o.Simtest.violations)
      (Simtest.to_string minimal)

let test_fuzz_batch_green () =
  let r = Simtest.fuzz ~base:0 ~count:25 () in
  check Alcotest.int "all seeds ran" 25 r.Simtest.seeds_run;
  match r.Simtest.failed with
  | None -> ()
  | Some (o, minimal) ->
    Alcotest.failf "seed %d failed (%s); minimal:\n%s"
      o.Simtest.ran.Simtest.seed
      (String.concat "; " o.Simtest.violations)
      (Simtest.to_string minimal)

let () =
  Alcotest.run "xorp_simtest"
    [
      ( "determinism",
        [
          Alcotest.test_case "benign scenario green" `Quick
            test_benign_scenario_green;
          Alcotest.test_case "same seed, same trace" `Quick
            test_same_seed_identical_trace;
          Alcotest.test_case "different seeds diverge" `Quick
            test_different_seed_different_trace;
          Alcotest.test_case "kill + restart recovers" `Quick
            test_kill_restart_recovers;
          Alcotest.test_case "kill + restart of the RIB recovers" `Quick
            test_kill_restart_rib_recovers;
          Alcotest.test_case "RIB reborn while the FEA is down recovers"
            `Quick test_rib_reborn_while_fea_down_recovers;
        ] );
      ( "text_form",
        [ Alcotest.test_case "roundtrip" `Quick test_text_form_roundtrip;
          Alcotest.test_case "documented scenarios parse" `Quick
            test_documented_scenarios_parse ] );
      ( "fuzz",
        [
          Alcotest.test_case "injected bug caught" `Quick
            test_injected_bug_caught_deterministically;
          Alcotest.test_case "fuzzer finds and shrinks it" `Quick
            test_fuzz_finds_and_shrinks_injected_bug;
          Alcotest.test_case "dataplane ttl leak caught" `Quick
            test_dataplane_ttl_leak_caught;
          Alcotest.test_case "fuzzer shrinks the dataplane bug" `Quick
            (test_fuzz_shrinks_dataplane_bug ~topo:false);
          Alcotest.test_case "lane reorder caught" `Quick
            test_lane_reorder_caught;
          Alcotest.test_case "fuzzer finds and shrinks lane reorder" `Quick
            test_fuzz_finds_and_shrinks_lane_reorder;
          Alcotest.test_case "rib-no-resync caught" `Quick
            test_rib_no_resync_caught;
          Alcotest.test_case "fuzzer finds and shrinks rib-no-resync" `Quick
            test_fuzz_finds_and_shrinks_rib_no_resync;
          Alcotest.test_case "green batch" `Quick test_fuzz_batch_green;
        ] );
      ( "topology",
        [
          Alcotest.test_case "mixed network with faults green" `Quick
            test_topo_scenario_green;
          Alcotest.test_case "same seed, same trace" `Quick
            test_topo_same_seed_identical_trace;
          Alcotest.test_case "text form roundtrip" `Quick
            test_topo_text_form_roundtrip;
          Alcotest.test_case "mesh-partition-heal caught" `Quick
            test_mesh_partition_heal_caught;
          Alcotest.test_case "topology fuzzer finds and shrinks it" `Quick
            test_topo_fuzz_finds_and_shrinks_mesh_partition_heal;
          Alcotest.test_case "fuzzer shrinks the dataplane bug" `Quick
            (test_fuzz_shrinks_dataplane_bug ~topo:true);
          Alcotest.test_case "fuzzer finds rib-no-replay" `Quick
            test_topo_fuzz_finds_and_shrinks_rib_no_replay;
          Alcotest.test_case "green topology batch" `Quick
            test_topo_fuzz_batch_green;
        ] );
    ]
