(* Telemetry overhead: what instrumentation costs on the hot path.

   Two measurements, each first with telemetry disabled, then enabled;
   with telemetry off every wrapper is a single ref read, so the
   disabled run doubles as the "uninstrumented" baseline.

   1. Stage histograms: adds + deletes through the real per-peer BGP
      pipeline (PeerIn -> filters -> resolver -> decision -> sink), every
      stage of which carries Telemetry.time wrappers. Documented bound
      (asserted): enabling telemetry costs less than 5 us per route
      operation through the five-stage pipeline, i.e. ~10 clock reads
      plus histogram updates. Typical measured cost is well under 1 us.

   2. Spans and trace contexts: an intra-process XRL round trip shaped
      like rib/add_route (four arguments), with a span on each side
      noting the prefix, so the call carries the caller's trace context
      and the handler's span joins it. This is what every BGP->RIB and
      RIB->FEA call pays. Documented bound (asserted, exact): enabling
      telemetry adds at most 100 minor-heap words per traced call,
      counted with Gc.minor_words. The time per call is reported, not
      gated: on a shared host it spreads more than the difference. *)

open Bench_util

let overhead_bound_us = 5.0
let traced_call_bound_words = 100

let mkroute i =
  { Bgp_types.net =
      Ipv4net.make
        (Ipv4.of_octets (10 + (i / 65536)) ((i / 256) mod 256) (i mod 256) 0)
        24;
    attrs =
      { (Bgp_types.default_attrs ~nexthop:(addr "10.0.0.11")) with
        Bgp_types.aspath = [ Aspath.Seq [ 65100; 200 + (i mod 7) ] ] };
    peer_id = 1;
    igp_metric = None }

(* The A2 staged pipeline, fresh per measurement run. *)
let make_pipeline loop =
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let filter =
    new Bgp_filter.filter_table ~name:"f"
      ~parent:(ribin :> Bgp_table.table)
      ~local_as:65000 ~peer_as:65100 ~programs:[] ()
  in
  Bgp_table.plumb ribin filter;
  let nht =
    new Bgp_nexthop.nexthop_table ~name:"nh"
      ~resolve:(fun nh cb ->
          cb
            { Bgp_nexthop.resolvable = true; metric = 0;
              valid = Ipv4net.host nh })
      ()
  in
  Bgp_table.plumb filter nht;
  let decision = new Bgp_decision.decision_table ~name:"d" () in
  Bgp_table.plumb nht decision;
  decision#add_parent
    ~info:
      { Bgp_types.peer_id = 1; peer_addr = addr "10.0.0.11"; peer_as = 65100;
        kind = Bgp_types.Ebgp; peer_bgp_id = addr "10.0.0.11" }
    (nht :> Bgp_table.table);
  let sink =
    new Bgp_table.sink ~name:"sink"
      ~parent:(decision :> Bgp_table.table)
      ~on_add:(fun _ -> ())
      ~on_delete:(fun _ -> ())
  in
  decision#set_next (Some (sink :> Bgp_table.table));
  ribin

let run_once routes =
  let loop = Eventloop.create () in
  let ribin = make_pipeline loop in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun r -> ribin#add_route r) routes;
  Array.iter (fun r -> ribin#delete_route r) routes;
  Unix.gettimeofday () -. t0

(* The traced round trip, fresh per measurement. [calls n] makes [n]
   calls and returns the minor-heap words and seconds they took. *)
let traced_round_trip () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let clock () = Eventloop.now loop in
  let target = Xrl_router.create finder loop ~class_name:"rib" () in
  Xrl_router.add_handler target ~interface:"rib" ~method_name:"add_route"
    (fun args reply ->
       let net = Xrl_atom.get_ipv4net args "net" in
       Telemetry.Trace.span_sync ~name:"rib.route_add" ~note:(Net net) ~clock
         (fun () -> ignore (Xrl_atom.get_ipv4 args "nexthop"));
       reply Xrl_error.Ok_xrl []);
  let caller = Xrl_router.create finder loop ~class_name:"bgp" () in
  let net = net "10.9.9.0/24" in
  let xrl =
    Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_route"
      [ Xrl_atom.txt "protocol" "ebgp";
        Xrl_atom.ipv4net "net" net;
        Xrl_atom.ipv4 "nexthop" (addr "10.0.0.11");
        Xrl_atom.u32 "metric" 0 ]
  in
  let replied = ref 0 in
  let on_reply _ _ = incr replied in
  let send () = Xrl_router.send caller xrl on_reply in
  let calls n =
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      Telemetry.Trace.span_sync ~name:"bgp.rib_send" ~note:(Net net) ~clock
        send;
      if !replied = 0 then Eventloop.run ~until:(fun () -> !replied > 0) loop;
      replied := 0
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (Gc.minor_words () -. w0, dt)
  in
  calls

let measure_traced_calls () =
  let n = 20_000 in
  let run enabled =
    Telemetry.set_enabled enabled;
    let calls = traced_round_trip () in
    (* Warm up the resolution cache and the metric handles. *)
    ignore (calls 1_000);
    calls n
  in
  let words_off, dt_off = run false in
  let words_on, dt_on = run true in
  let per_call x = x /. float_of_int n in
  let added_words = per_call (words_on -. words_off) in
  pf "\n%-10s %14s %14s\n" "telemetry" "words/call" "us/call";
  pf "%-10s %14.1f %14.3f\n" "off" (per_call words_off) (per_call dt_off *. 1e6);
  pf "%-10s %14.1f %14.3f\n" "on" (per_call words_on) (per_call dt_on *. 1e6);
  pf "\nshape: telemetry adds %.1f words and %.3f us per traced XRL call \
      (bound: %d words)\n"
    added_words
    ((per_call dt_on -. per_call dt_off) *. 1e6)
    traced_call_bound_words;
  if added_words > float_of_int traced_call_bound_words then
    failwith
      (Printf.sprintf
         "telemetry adds %.1f words per traced XRL call, above the \
          documented %d-word bound"
         added_words traced_call_bound_words)

let run () =
  header "Telemetry: instrumentation overhead, BGP pipeline and traced XRL";
  paper_note
    [ "Not in the paper; bounds what the xorp_telemetry subsystem may";
      "cost. Disabled-mode wrappers are one ref read, so disabled ~=";
      "uninstrumented. Asserted: enabling costs < 5 us per route op";
      "through the stage histograms, and at most 100 words per traced";
      "XRL call with a span on each side." ];
  let was_enabled = Telemetry.is_enabled () in
  let n = 50_000 in
  let routes = Array.init n mkroute in
  let ops = float_of_int (2 * n) in
  (* Warm up allocators and the stage metric instances. *)
  Telemetry.set_enabled false;
  ignore (run_once routes);
  let measure enabled =
    Telemetry.set_enabled enabled;
    (* Best of 3: per-run noise dominates sub-us effects. *)
    List.fold_left min infinity
      (List.init 3 (fun _ -> run_once routes))
  in
  let off = measure false in
  let on = measure true in
  let per_op_us dt = dt /. ops *. 1e6 in
  let overhead_us = per_op_us on -. per_op_us off in
  pf "\n%-10s %10s %14s %14s\n" "telemetry" "time" "routes/sec" "us/route-op";
  pf "%-10s %9.3fs %14.0f %14.3f\n" "off" off (ops /. off) (per_op_us off);
  pf "%-10s %9.3fs %14.0f %14.3f\n" "on" on (ops /. on) (per_op_us on);
  pf "\nshape: telemetry adds %.3f us per route op (bound: %.1f us)\n"
    overhead_us overhead_bound_us;
  if overhead_us >= overhead_bound_us then
    failwith
      (Printf.sprintf
         "telemetry overhead %.3f us/op exceeds the documented %.1f us bound"
         overhead_us overhead_bound_us);
  measure_traced_calls ();
  Telemetry.set_enabled was_enabled;
  pf "bounds ok\n%!"
