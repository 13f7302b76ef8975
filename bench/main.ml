(* camlXORP benchmark harness: regenerates every table and figure in
   the paper's evaluation (§8), plus ablations and micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig9    # one experiment
     dune exec bench/main.exe -- list    # what exists

   See DESIGN.md for the experiment index and EXPERIMENTS.md for
   recorded paper-vs-measured results. *)

let experiments =
  [ ("fig9", "XRL throughput: intra/TCP/UDP vs #args (§8.1, Figure 9)",
     Fig9.run);
    ("fig10", "route latency, empty table (§8.2, Figure 10)",
     Fig_latency.run_fig10);
    ("fig11", "route latency, 146515 routes, same peering (Figure 11)",
     Fig_latency.run_fig11);
    ("fig12", "route latency, 146515 routes, different peering (Figure 12)",
     Fig_latency.run_fig12);
    ("pipeline",
     "figures 10-12 + occupancy/during-load/churn sweep, emits BENCH_pipeline.json",
     Fig_latency.run_all);
    ("fig13", "event-driven vs 30s scanners (Figure 13)", Fig13.run);
    ("converge",
     "network-wide convergence after a link flap, {3,10,30,100} routers, \
      emits BENCH_converge.json",
     Converge.run);
    ("converge-smoke",
     "CI smoke: 30-router flap re-convergence under a wall budget",
     Converge.smoke);
    ("forward",
     "packets/s through the element-graph data plane, 146515-route FIB, \
      emits BENCH_forward.json",
     Forward.run);
    ("memory", "full-table memory footprint (§5.1)", Memory.run);
    ("soak",
     "60 kill/restart cycles of FEA, RIB and BGP: watchers, live heap, \
      events per cycle",
     Soak.run);
    ("ablation-pipeline", "A1: TCP pipeline window sweep",
     Ablations.run_pipeline);
    ("ablation-stages", "A2: staged vs monolithic processing",
     Ablations.run_stages);
    ("ablation-slices", "A3: deletion slice size vs event latency",
     Ablations.run_slices);
    ("telemetry",
     "telemetry on/off overhead through the BGP pipeline and a traced XRL \
      round trip",
     Telemetry_overhead.run);
    ("micro", "Bechamel micro-benchmarks of hot primitives", Micro.run);
    ("smoke",
     "CI smoke: short fig9 TCP transaction + bulk vs per-route RIB->FEA \
      install",
     Fig9.smoke) ]

let list_them () =
  Printf.printf "available experiments:\n";
  List.iter
    (fun (name, descr, _) -> Printf.printf "  %-18s %s\n" name descr)
    experiments;
  Printf.printf "  %-18s %s\n" "all" "run everything (default)"

let run_one name =
  match List.find_opt (fun (n, _, _) -> n = name) experiments with
  | Some (_, _, f) -> f ()
  | None ->
    Printf.eprintf "unknown experiment %S\n" name;
    list_them ();
    exit 1

let () =
  Printf.printf "camlXORP %s benchmark harness (paper: NSDI 2005)\n%!"
    Xorp.version;
  match Array.to_list Sys.argv with
  | _ :: [] | _ :: "all" :: _ ->
    (* "all" skips the aggregates already covered elsewhere: "pipeline"
       re-runs figs 10-12, and the smoke entries exist for CI. *)
    List.iter
      (fun (name, _, f) ->
         if
           name <> "pipeline" && name <> "smoke" && name <> "converge-smoke"
         then (ignore name; f ()))
      experiments
  | _ :: "list" :: _ -> list_them ()
  | _ :: names -> List.iter run_one names
  | [] -> ()
