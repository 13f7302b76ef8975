(* xorp_top: live observability for a running router.

   Boots a router, then repeatedly advances the clock by one interval
   and polls the telemetry/0.1 XRL interface — list, get?name, spans —
   rendering a top(1)-style frame: hottest pipeline stages first (by
   observation count), then counters, then the most recent trace spans
   so an operator can watch a route's RIB→FEA journey as it happens.

   Everything arrives over XRL, not via in-process peeking: xorp_top
   exercises exactly the interface an external monitor would use.

     dune exec bin/xorp_top.exe -- -c etc/sample_router.conf \
       -i 5 -n 6 --delay 1 *)

open Cmdliner

let call router xrl =
  (* Borrow the RIB's endpoint as the caller, like call_xrl does. *)
  let caller = Rib.xrl_router (Rtrmgr.rib router) in
  Xrl_router.call_blocking caller xrl

let telemetry_xrl method_name args =
  Xrl.make ~target:"telemetry" ~interface:"telemetry" ~version:"0.1"
    ~method_name args

(* One polled histogram row. *)
type stage = {
  st_name : string;
  st_count : int;
  st_p50 : float;
  st_p90 : float;
  st_p99 : float;
  st_max : float;
}

let poll_metrics router =
  match call router (telemetry_xrl "list" []) with
  | err, _ when not (Xrl_error.is_ok err) -> ([], [])
  | _, reply ->
    let entries =
      Xrl_atom.get_list reply "metrics"
      |> List.filter_map (function
        | Xrl_atom.Txt s ->
          (match String.index_opt s '|' with
           | Some i ->
             Some
               ( String.sub s 0 i,
                 String.sub s (i + 1) (String.length s - i - 1) )
           | None -> None)
        | _ -> None)
    in
    List.fold_left
      (fun (stages, counters) (name, kind) ->
         let get () =
           call router (telemetry_xrl "get" [ Xrl_atom.txt "name" name ])
         in
         match kind with
         | "histogram" ->
           (match get () with
            | err, a when Xrl_error.is_ok err ->
              let f field = float_of_string (Xrl_atom.get_txt a field) in
              ( { st_name = name;
                  st_count = Xrl_atom.get_u32 a "count";
                  st_p50 = f "p50";
                  st_p90 = f "p90";
                  st_p99 = f "p99";
                  st_max = f "max" }
                :: stages,
                counters )
            | _ -> (stages, counters))
         | "counter" | "gauge" ->
           (match get () with
            | err, a when Xrl_error.is_ok err ->
              (stages, (name, Xrl_atom.get_txt a "value") :: counters)
            | _ -> (stages, counters))
         | _ -> (stages, counters))
      ([], []) entries

let poll_spans router =
  match call router (telemetry_xrl "spans" []) with
  | err, _ when not (Xrl_error.is_ok err) -> []
  | _, reply ->
    Xrl_atom.get_list reply "spans"
    |> List.filter_map (function
      | Xrl_atom.Txt s -> Telemetry_xrl.span_of_string s
      | _ -> None)

let last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let render_frame ~frame ~clock ~top_n stages counters spans =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "xorp_top — frame %d, router clock %.1fs\n\n" frame clock;
  addf "%-34s %8s %9s %9s %9s %9s\n" "HOT STAGES (latency us)" "count"
    "p50" "p90" "p99" "max";
  let stages =
    List.sort (fun a b -> compare b.st_count a.st_count) stages
  in
  List.iteri
    (fun i st ->
       if i < top_n && st.st_count > 0 then
         addf "%-34s %8d %9.1f %9.1f %9.1f %9.1f\n" st.st_name st.st_count
           st.st_p50 st.st_p90 st.st_p99 st.st_max)
    stages;
  (* The forwarding path gets its own pane: per-element rx/tx/drop
     counters live under the "dataplane." telemetry prefix. *)
  let is_dp (n, _) =
    String.length n >= String.length Dataplane.telemetry_prefix
    && String.sub n 0 (String.length Dataplane.telemetry_prefix)
       = Dataplane.telemetry_prefix
  in
  (* So do the pipeline's staging queues and priority lanes, as
     `show queues` lists them. Watching these during a table load shows
     the bulk backlog draining while the urgent lane stays near zero. *)
  let is_queue (n, _) = Rtrmgr.is_queue_gauge n in
  (* Rebirth-resync activity: routes each protocol replayed into a
     restarted RIB, and stale FIB entries the FEA swept afterwards.
     Nonzero values here mean the router survived a RIB restart. *)
  let is_resync (n, _) =
    List.exists
      (fun part -> part = "rib_resync" || part = "rib_sweep")
      (String.split_on_char '.' n)
  in
  let dp_counters, counters = List.partition is_dp counters in
  let q_counters, counters = List.partition is_queue counters in
  let resync_counters, counters = List.partition is_resync counters in
  let counters = List.sort compare counters in
  if counters <> [] then begin
    addf "\n%-34s %12s\n" "COUNTERS" "value";
    List.iter (fun (n, v) -> addf "%-34s %12s\n" n v) counters
  end;
  if q_counters <> [] then begin
    addf "\n%-34s %12s\n" "QUEUES (backlogs and lanes)" "depth";
    List.iter
      (fun (n, v) -> addf "%-34s %12s\n" n v)
      (List.sort compare q_counters)
  end;
  if resync_counters <> [] then begin
    addf "\n%-34s %12s\n" "REBIRTH RESYNC (RIB restart)" "routes";
    List.iter
      (fun (n, v) -> addf "%-34s %12s\n" n v)
      (List.sort compare resync_counters)
  end;
  if dp_counters <> [] then begin
    addf "\n%-34s %12s\n" "DATA PLANE" "packets";
    List.iter
      (fun (n, v) -> addf "%-34s %12s\n" n v)
      (List.sort compare dp_counters)
  end;
  if spans <> [] then begin
    addf "\n%-7s %-7s %-22s %9s  %s\n" "trace" "span" "RECENT SPANS"
      "dur us" "note";
    List.iter
      (fun (s : Telemetry.Trace.span) ->
         let dur = (s.sp_stop -. s.sp_start) *. 1e6 in
         let name =
           match s.sp_parent with
           | Some _ -> "  \\_ " ^ s.sp_name
           | None -> s.sp_name
         in
         addf "%-7d %-7d %-22s %9.1f  %s\n" s.sp_trace s.sp_span name dur
           s.sp_note)
      (last 12 spans)
  end;
  Buffer.contents buf

let run config_file interval frames delay top_n =
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
    let loop = Rtrmgr.eventloop router in
    for frame = 1 to frames do
      Eventloop.run_until_time loop (Eventloop.now loop +. interval);
      let stages, counters = poll_metrics router in
      let spans = poll_spans router in
      if delay > 0.0 then print_string "\027[2J\027[H";
      print_string
        (render_frame ~frame ~clock:(Eventloop.now loop) ~top_n stages
           counters spans);
      if frame < frames then print_newline ();
      flush stdout;
      if delay > 0.0 then Unix.sleepf delay
    done;
    Rtrmgr.shutdown router

let config_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "c"; "config" ] ~docv:"FILE" ~doc:"Router configuration file.")

let interval_arg =
  Arg.(
    value & opt float 5.0
    & info [ "i"; "interval" ] ~docv:"SECONDS"
        ~doc:"Simulated seconds the router runs between frames.")

let frames_arg =
  Arg.(
    value & opt int 3
    & info [ "n"; "frames" ] ~docv:"N" ~doc:"Number of frames to render.")

let delay_arg =
  Arg.(
    value & opt float 0.0
    & info [ "d"; "delay" ] ~docv:"SECONDS"
        ~doc:
          "Real seconds to pause between frames; also clears the screen \
           per frame (0 = scroll, for scripts and tests).")

let top_arg =
  Arg.(
    value & opt int 15
    & info [ "t"; "top" ] ~docv:"N" ~doc:"Stage rows to show per frame.")

let cmd =
  Cmd.v
    (Cmd.info "xorp_top" ~version:Xorp.version
       ~doc:"live per-stage latency and tracing view of a router")
    Term.(
      const run $ config_arg $ interval_arg $ frames_arg $ delay_arg
      $ top_arg)

let () = exit (Cmd.eval cmd)
