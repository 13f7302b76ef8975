(* xorp_simtest: the deterministic simulation harness.

   Fuzz seeded fault schedules over networks of full BGP/RIP/OSPF + RIB
   + FEA routers — the classic 4-router world, or generated topologies
   with --topo — or replay a single scenario:

     dune exec bin/xorp_simtest.exe -- --seeds 500
     dune exec bin/xorp_simtest.exe -- --topo --seeds 100
     dune exec bin/xorp_simtest.exe -- --seed 42 --trace
     dune exec bin/xorp_simtest.exe -- --replay counterexample.txt
     dune exec bin/xorp_simtest.exe -- --seeds 200 --inject-bug rib-no-replay

   Exit status: 0 all green, 1 an invariant was violated, 2 usage. *)

open Cmdliner

let read_file path =
  try
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Ok s
  with Sys_error e -> Error e

(* The known bugs behind --inject-bug: name, what it breaks, and how
   it sets the harness opts. *)
let bugs =
  [ ( "rib-no-replay",
      "the RIB skips the full FIB replay when the FEA is reborn",
      fun o -> { o with Simtest.fea_rebirth_replay = false } );
    ( "dataplane-ttl-leak",
      "the forwarding graph's DecTtl forgets to drop TTL-expired packets",
      fun o -> { o with Simtest.dataplane_ttl_leak = true } );
    ( "lane-reorder",
      "BGP's priority lanes lose their per-prefix FIFO guard, so an urgent \
       withdrawal can overtake a queued bulk add",
      fun o -> { o with Simtest.bgp_lane_unordered = true } );
    ( "rib-no-resync",
      "protocols resume sending to a reborn RIB without replaying their \
       tables into it",
      fun o -> { o with Simtest.rib_resync = false } );
    ( "mesh-partition-heal",
      "a re-established BGP session is never re-dumped, so routes withdrawn \
       during a partition stay missing after the heal",
      fun o -> { o with Simtest.bgp_redump = false } ) ]

let bug_names = List.map (fun (name, _, _) -> name) bugs

let opts_of ~bug ~trace =
  List.fold_left
    (fun o (name, _, inject) -> if bug = Some name then inject o else o)
    { Simtest.default_opts with Simtest.log_trace = trace }
    bugs

let report_outcome ~quiet (o : Simtest.outcome) =
  if o.Simtest.violations = [] then begin
    if not quiet then
      Printf.printf "seed %d: OK (sim time %.0fs, %d events dispatched)\n"
        o.Simtest.ran.Simtest.seed o.Simtest.sim_time o.Simtest.dispatched;
    0
  end
  else begin
    Printf.printf "seed %d: %d invariant violation(s):\n"
      o.Simtest.ran.Simtest.seed
      (List.length o.Simtest.violations);
    List.iter (fun v -> Printf.printf "  %s\n" v) o.Simtest.violations;
    Printf.printf "scenario:\n%s" (Simtest.to_string o.Simtest.ran);
    1
  end

(* Boot an N-router grid twice under one seed and demand byte-identical
   traces and table signatures: the determinism gate at topology scale. *)
let topo_boot ~size ~seed ~quiet =
  let topo =
    let rec fit r = if size mod r = 0 then r else fit (r - 1) in
    let rows = fit (int_of_float (sqrt (float_of_int size))) in
    if rows <= 1 then Topology.chain size
    else Topology.grid rows (size / rows)
  in
  let boot () =
    let w = Simnet.spawn ~seed topo in
    let converged, _ = Simnet.converge w in
    if converged then Simnet.check_all w ~tag:"boot";
    let sign = Simnet.signature w in
    let viol = Simnet.violations w in
    let viol =
      if converged then viol else "boot: did not converge" :: viol
    in
    Simnet.teardown w;
    (sign, Digest.to_hex (Digest.string (Simnet.trace w)), viol)
  in
  let s1, d1, v1 = boot () in
  let s2, d2, v2 = boot () in
  if not quiet then begin
    Printf.printf "topology: %d routers, seed %d\n" (Topology.size topo) seed;
    Printf.printf "signature: %s\n" s1;
    Printf.printf "trace digest: %s / %s\n" d1 d2
  end;
  List.iter (Printf.printf "violation: %s\n") (v1 @ v2);
  if s1 <> s2 || d1 <> d2 then begin
    Printf.printf "NOT deterministic: runs differ under seed %d\n" seed;
    exit 1
  end;
  if v1 <> [] || v2 <> [] then exit 1;
  if not quiet then
    Printf.printf "deterministic: two boots agree byte-for-byte\n";
  exit 0

let run_main seeds base seed replay bug trace quiet topo topo_boot_size =
  (match bug with
   | Some other when not (List.mem other bug_names) ->
     Printf.eprintf "unknown --inject-bug %S (known: %s)\n" other
       (String.concat ", " bug_names);
     exit 2
   | _ -> ());
  (match topo_boot_size with
   | Some size when size >= 1 ->
     topo_boot ~size ~seed:(Option.value seed ~default:0) ~quiet
   | Some _ ->
     prerr_endline "--topo-boot must be >= 1";
     exit 2
   | None -> ());
  let opts = opts_of ~bug ~trace in
  match (seed, replay) with
  | Some _, Some _ ->
    prerr_endline "--seed and --replay are mutually exclusive";
    exit 2
  | Some s, None ->
    (* Replay one generated scenario; print the trace unless --quiet. *)
    let sc =
      if topo then Simtest.generate_topo ~seed:s else Simtest.generate ~seed:s
    in
    if not quiet then Printf.printf "%s" (Simtest.to_string sc);
    let o = Simtest.run ~opts sc in
    if (not quiet) && not trace then print_string o.Simtest.trace;
    exit (report_outcome ~quiet o)
  | None, Some path ->
    (match read_file path with
     | Error e ->
       prerr_endline e;
       exit 2
     | Ok text ->
       (match Simtest.of_string text with
        | Error e ->
          Printf.eprintf "cannot parse %s: %s\n" path e;
          exit 2
        | Ok sc ->
          let o = Simtest.run ~opts sc in
          if (not quiet) && not trace then print_string o.Simtest.trace;
          exit (report_outcome ~quiet o)))
  | None, None ->
    let t0 = Unix.gettimeofday () in
    let progress s =
      if (not quiet) && s mod 50 = 0 && s > base then
        Printf.printf "... seed %d (%.1fs)\n%!" s (Unix.gettimeofday () -. t0)
    in
    let r = Simtest.fuzz ~opts ~progress ~topo ~base ~count:seeds () in
    let wall = Unix.gettimeofday () -. t0 in
    (match r.Simtest.failed with
     | None ->
       Printf.printf "%d seeds (base %d): all invariants held (%.1fs)\n"
         r.Simtest.seeds_run base wall;
       exit 0
     | Some (o, minimal) ->
       Printf.printf
         "seed %d FAILED after %d seed(s) (%.1fs); %d violation(s):\n"
         o.Simtest.ran.Simtest.seed r.Simtest.seeds_run wall
         (List.length o.Simtest.violations);
       List.iter (fun v -> Printf.printf "  %s\n" v) o.Simtest.violations;
       Printf.printf "shrunk to a minimal scenario (%d extra runs):\n%s"
         r.Simtest.shrink_runs
         (Simtest.to_string minimal);
       Printf.printf
         "replay: save the scenario above and run --replay <file>, or\n\
         \        re-run --seed %d for the unshrunk schedule\n"
         o.Simtest.ran.Simtest.seed;
       exit 1)

let seeds_arg =
  Arg.(
    value & opt int 500
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of fuzz seeds to run.")

let base_arg =
  Arg.(
    value & opt int 0
    & info [ "base" ] ~docv:"N" ~doc:"First seed of the fuzz range.")

let seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:"Run the single generated scenario for this seed and print \
              its event trace.")

let replay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay a scenario file (the format printed on failure).")

let bug_arg =
  Arg.(
    value & opt (some string) None
    & info [ "inject-bug" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Run with a known bug injected (%s)."
             (String.concat "; "
                (List.map (fun (name, what, _) -> name ^ ": " ^ what) bugs))))

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Stream the event trace to stderr while running.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only report failures.")

let topo_arg =
  Arg.(
    value & flag
    & info [ "topo" ]
        ~doc:"Fuzz (or --seed replay) topology-parametric scenarios: each \
              seed generates a whole network (2-8 routers over chains, \
              iBGP full meshes, grids and mixed-protocol shapes) plus a \
              fault schedule against it, and shrinking reduces the \
              topology itself along with the events.")

let topo_boot_arg =
  Arg.(
    value & opt (some int) None
    & info [ "topo-boot" ] ~docv:"SIZE"
        ~doc:"Determinism gate: boot a SIZE-router grid twice under one \
              seed (--seed, default 0), converge, and demand byte-identical \
              traces and table signatures. Exits 1 on any difference or \
              invariant violation.")

let cmd =
  Cmd.v
    (Cmd.info "xorp_simtest"
       ~doc:"Deterministic whole-router simulation fuzzer")
    Term.(
      const run_main $ seeds_arg $ base_arg $ seed_arg $ replay_arg $ bug_arg
      $ trace_arg $ quiet_arg $ topo_arg $ topo_boot_arg)

let () = exit (Cmd.eval cmd)
