(* xorp_profiler: drive the profiling mechanism of §8.2.

   Boots a router in-process, switches on the requested profile points
   (or all of them; naming a point no component registered is an
   error), runs the simulated clock for a while, and dumps the
   timestamped records in the paper's textual format:

     route_ribin 1097173928 664085 add 10.0.1.0/24

     dune exec bin/xorp_profiler.exe -- -c router.conf --run 60 *)

open Cmdliner

let run config_file run_seconds points =
  let config =
    try
      let ic = open_in config_file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error e ->
      prerr_endline e;
      exit 1
  in
  match Rtrmgr.boot ~config () with
  | Error problems ->
    prerr_endline "configuration rejected:";
    List.iter (fun p -> prerr_endline ("  " ^ p)) problems;
    exit 1
  | Ok router ->
    (match points with
     | [] -> Telemetry.Profile.enable_all ()
     | points -> (
         try List.iter Telemetry.Profile.enable points
         with Invalid_argument e ->
           prerr_endline ("xorp_profiler: " ^ e);
           Rtrmgr.shutdown router;
           exit 1));
    Eventloop.run_until_time (Rtrmgr.eventloop router) run_seconds;
    Printf.printf "# profiling points:\n";
    List.iter
      (fun (name, on, count) ->
         Printf.printf "#   %-16s %-8s %d records\n" name
           (if on then "enabled" else "disabled")
           count)
      (Telemetry.Profile.list_points ());
    List.iter print_endline (Telemetry.Profile.to_strings ());
    Rtrmgr.shutdown router

let config_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "c"; "config" ] ~docv:"FILE" ~doc:"Router configuration file.")

let run_arg =
  Arg.(
    value & opt float 60.0
    & info [ "r"; "run" ] ~docv:"SECONDS" ~doc:"Simulated run time.")

let points_arg =
  Arg.(
    value & opt_all string []
    & info [ "p"; "point" ] ~docv:"NAME"
        ~doc:"Profiling point to enable (repeatable; default: all).")

let cmd =
  Cmd.v
    (Cmd.info "xorp_profiler" ~version:Xorp.version
       ~doc:"enable profiling points on a router and dump the records")
    Term.(const run $ config_arg $ run_arg $ points_arg)

let () = exit (Cmd.eval cmd)
