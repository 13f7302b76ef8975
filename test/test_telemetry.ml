(* Tests for the xorp_telemetry subsystem: histogram bucketing and
   quantiles (property-checked against a sorted reference), metric
   registries, ambient trace contexts, the span ring (growth, wrap, no
   record allocated per span), trace propagation across real XRL
   transports (intra and TCP) and the rejection of malformed trace
   atoms, the telemetry/0.1 XRL service and the text every reader
   shows for span notes, and the end-to-end span chains (per-route,
   bulk, and from a BGP UPDATE) across BGP, RIB and FEA on booted
   routers. Also covers the §8.2 profile points: switching, counts,
   their text and its microsecond rounding carry, recording without
   allocating, and a point ring kept apart from the span ring. *)

let check = Alcotest.check
let ok = Xrl_error.Ok_xrl

(* --- Histogram buckets -------------------------------------------------- *)

let test_histogram_buckets () =
  let module H = Telemetry.Histogram in
  check Alcotest.int "small values -> bucket 0" 0 (H.bucket_index 0.5);
  check Alcotest.int "1.0 -> bucket 0" 0 (H.bucket_index 1.0);
  check Alcotest.int "zero -> bucket 0" 0 (H.bucket_index 0.0);
  check (Alcotest.float 0.0) "bucket 0 bound" 1.0 (H.bucket_upper_bound 0);
  check (Alcotest.float 0.0) "overflow bound" infinity
    (H.bucket_upper_bound (H.bucket_count - 1));
  (* Bounds strictly increase; every value lands in the bucket whose
     bound first covers it. *)
  for i = 0 to H.bucket_count - 3 do
    if not (H.bucket_upper_bound i < H.bucket_upper_bound (i + 1)) then
      Alcotest.failf "bounds not increasing at %d" i
  done;
  List.iter
    (fun v ->
       let i = H.bucket_index v in
       if H.bucket_upper_bound i < v then
         Alcotest.failf "value %g above its bucket bound" v;
       if i > 0 && H.bucket_upper_bound (i - 1) >= v then
         Alcotest.failf "value %g fits the previous bucket" v)
    [ 0.1; 1.0; 1.5; 2.0; 9.0; 9.1; 10.0; 95.0; 100.0; 12345.0; 8.9e8; 1e10 ];
  check Alcotest.int "huge -> overflow" (H.bucket_count - 1)
    (H.bucket_index 1e10)

let test_histogram_stats () =
  Telemetry.set_enabled true;
  let reg = Telemetry.create_registry () in
  let h = Telemetry.histogram ~registry:reg "h" in
  check (Alcotest.float 0.0) "empty quantile" 0.0
    (Telemetry.Histogram.quantile h 0.5);
  List.iter (Telemetry.observe h) [ 3.0; 7.0; 50.0 ];
  check Alcotest.int "count" 3 (Telemetry.Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 60.0 (Telemetry.Histogram.sum h);
  check (Alcotest.float 0.0) "max" 50.0 (Telemetry.Histogram.max_observed h);
  (* rank of q=0.5 over 3 samples is 2 -> 7.0, whose bucket bound is 7 *)
  check (Alcotest.float 0.0) "p50" 7.0 (Telemetry.Histogram.quantile h 0.5);
  check (Alcotest.float 0.0) "p100" 50.0 (Telemetry.Histogram.quantile h 1.0);
  (* overflow-bucket quantile reports the max observed *)
  let h2 = Telemetry.histogram ~registry:reg "h2" in
  Telemetry.observe h2 1e10;
  Telemetry.observe h2 2e10;
  check (Alcotest.float 0.0) "overflow quantile = max" 2e10
    (Telemetry.Histogram.quantile h2 0.9);
  Telemetry.Histogram.clear h;
  check Alcotest.int "cleared" 0 (Telemetry.Histogram.count h)

(* quantile estimate vs a sorted reference: same bucket, hence within
   2x above the true value (generator stays below the overflow
   bucket's 9e8 lower edge, where that contract holds). *)
let prop_quantile =
  let gen =
    QCheck.Gen.(list_size (int_range 1 200)
                  (map (fun n -> float_of_int n /. 7.0) (int_range 0 2_000_000)))
  in
  QCheck.Test.make ~name:"histogram quantile brackets sorted reference"
    ~count:200 (QCheck.make gen) (fun values ->
      Telemetry.set_enabled true;
      let reg = Telemetry.create_registry () in
      let h = Telemetry.histogram ~registry:reg "q" in
      List.iter (Telemetry.observe h) values;
      let sorted = List.sort compare values in
      let n = List.length values in
      List.for_all
        (fun q ->
           let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
           let reference = List.nth sorted (rank - 1) in
           let est = Telemetry.Histogram.quantile h q in
           reference <= est && est <= 2.0 *. Float.max reference 1.0)
        [ 0.5; 0.9; 0.99; 1.0 ])

(* --- counters, gauges, registry ----------------------------------------- *)

let test_metrics_registry () =
  Telemetry.set_enabled true;
  let reg = Telemetry.create_registry () in
  let c = Telemetry.counter ~registry:reg "xrl.calls" in
  Telemetry.incr c;
  Telemetry.add c 4;
  check Alcotest.int "counter" 5 (Telemetry.counter_value c);
  check Alcotest.int "get-or-create shares state" 5
    (Telemetry.counter_value (Telemetry.counter ~registry:reg "xrl.calls"));
  let g = Telemetry.gauge ~registry:reg "queue.depth" in
  Telemetry.set_gauge g 17.0;
  check (Alcotest.float 0.0) "gauge" 17.0 (Telemetry.gauge_value g);
  (try
     ignore (Telemetry.histogram ~registry:reg "xrl.calls");
     Alcotest.fail "kind mismatch accepted"
   with Invalid_argument _ -> ());
  check
    (Alcotest.list Alcotest.string)
    "list sorted" [ "queue.depth"; "xrl.calls" ]
    (List.map fst (Telemetry.list_metrics ~registry:reg ()));
  (match Telemetry.find_metric ~registry:reg "queue.depth" with
   | Some (Telemetry.Gauge _) -> ()
   | _ -> Alcotest.fail "find_metric");
  Telemetry.reset ~registry:reg ();
  check Alcotest.int "reset zeroes" 0 (Telemetry.counter_value c);
  check Alcotest.int "registrations survive reset" 2
    (List.length (Telemetry.list_metrics ~registry:reg ()))

let test_reset_prefix () =
  Telemetry.set_enabled true;
  let reg = Telemetry.create_registry () in
  let c1 = Telemetry.counter ~registry:reg "fea.installed" in
  let c2 = Telemetry.counter ~registry:reg "rib.adds" in
  let h = Telemetry.histogram ~registry:reg "fea.install.latency_us" in
  Telemetry.incr c1;
  Telemetry.incr c2;
  Telemetry.observe h 12.0;
  Telemetry.reset_prefix ~registry:reg "fea.";
  check Alcotest.int "prefixed counter zeroed" 0 (Telemetry.counter_value c1);
  check Alcotest.int "prefixed histogram cleared" 0
    (Telemetry.Histogram.count h);
  check Alcotest.int "other namespace untouched" 1
    (Telemetry.counter_value c2);
  check Alcotest.int "registrations survive" 3
    (List.length (Telemetry.list_metrics ~registry:reg ()))

let test_ambient_namespace () =
  (* Registration-time qualification: a metric created while a
     namespace is ambient lives under it forever; resolution with
     find_metric sees the qualified name; reset_prefix scopes to the
     namespace like registration does. *)
  Telemetry.set_enabled true;
  let reg = Telemetry.create_registry () in
  check Alcotest.string "default namespace is empty" ""
    (Telemetry.current_namespace ());
  let c =
    Telemetry.with_namespace "r1." (fun () ->
        check Alcotest.string "ambient inside thunk" "r1."
          (Telemetry.current_namespace ());
        Telemetry.counter ~registry:reg "bgp.updates")
  in
  check Alcotest.string "restored after thunk" ""
    (Telemetry.current_namespace ());
  Telemetry.incr c;
  (match Telemetry.find_metric ~registry:reg "r1.bgp.updates" with
   | Some (Telemetry.Counter c') ->
     check Alcotest.int "qualified name resolves to the handle" 1
       (Telemetry.counter_value c')
   | _ -> Alcotest.fail "metric not under the namespace");
  check Alcotest.bool "unqualified name does not exist" true
    (Telemetry.find_metric ~registry:reg "bgp.updates" = None);
  (* The handle keeps recording in its namespace even when a different
     namespace is ambient later. *)
  Telemetry.with_namespace "r2." (fun () -> Telemetry.incr c);
  (match Telemetry.find_metric ~registry:reg "r1.bgp.updates" with
   | Some (Telemetry.Counter c') ->
     check Alcotest.int "handle pinned at registration" 2
       (Telemetry.counter_value c')
   | _ -> Alcotest.fail "metric moved")

let test_namespaces_isolate_same_class_components () =
  (* Two same-class components (two "BGP processes") in two router
     namespaces: identical metric names, disjoint metrics. This is
     what lets N router stacks share one process. *)
  Telemetry.set_enabled true;
  let reg = Telemetry.create_registry () in
  let mk ns = Telemetry.with_namespace ns (fun () ->
      Telemetry.counter ~registry:reg "bgp.rib.sent")
  in
  let c1 = mk "r1." and c2 = mk "r2." in
  Telemetry.incr c1;
  Telemetry.incr c1;
  Telemetry.incr c2;
  let value name =
    match Telemetry.find_metric ~registry:reg name with
    | Some (Telemetry.Counter c) -> Telemetry.counter_value c
    | _ -> Alcotest.failf "%s missing" name
  in
  check Alcotest.int "r1 counts its own" 2 (value "r1.bgp.rib.sent");
  check Alcotest.int "r2 counts its own" 1 (value "r2.bgp.rib.sent");
  (* Resetting one router's namespace leaves the other alone. *)
  Telemetry.reset_prefix ~registry:reg "r1.";
  check Alcotest.int "r1 zeroed" 0 (value "r1.bgp.rib.sent");
  check Alcotest.int "r2 untouched" 1 (value "r2.bgp.rib.sent")

let test_disabled_is_noop () =
  let reg = Telemetry.create_registry () in
  let c = Telemetry.counter ~registry:reg "c" in
  let h = Telemetry.histogram ~registry:reg "h" in
  Telemetry.set_enabled false;
  Telemetry.incr c;
  Telemetry.observe h 5.0;
  let ran = ref false in
  let v =
    Telemetry.Trace.span_sync ~registry:reg ~name:"s" ~clock:(fun () -> 0.0)
      (fun () -> ran := true; 42)
  in
  Telemetry.set_enabled true;
  check Alcotest.int "thunk still runs" 42 v;
  check Alcotest.bool "ran" true !ran;
  check Alcotest.int "counter untouched" 0 (Telemetry.counter_value c);
  check Alcotest.int "histogram untouched" 0 (Telemetry.Histogram.count h);
  check Alcotest.int "no span recorded" 0
    (List.length (Telemetry.Trace.spans ~registry:reg ()))

(* --- tracing ------------------------------------------------------------ *)

let test_trace_ambient () =
  let c = { Telemetry.Trace.trace_id = 7; span_id = 3 } in
  check Alcotest.bool "no ambient ctx" true (Telemetry.Trace.current () = None);
  Telemetry.Trace.with_ctx (Some c) (fun () ->
      check Alcotest.bool "ctx visible" true
        (Telemetry.Trace.current () = Some c);
      Telemetry.Trace.with_ctx None (fun () ->
          check Alcotest.bool "nested clear" true
            (Telemetry.Trace.current () = None));
      check Alcotest.bool "restored after nest" true
        (Telemetry.Trace.current () = Some c));
  (try
     Telemetry.Trace.with_ctx (Some c) (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "restored after exception" true
    (Telemetry.Trace.current () = None)

(* A clock that reads 1.0, 2.0, 3.0, ... on successive calls. *)
let scripted_clock () =
  let now = ref 0.0 in
  fun () ->
    now := !now +. 1.0;
    !now

let test_trace_spans_and_ring () =
  Telemetry.set_enabled true;
  let reg = Telemetry.create_registry ~span_capacity:2 () in
  let clock = scripted_clock () in
  let span ?note name f =
    Telemetry.Trace.span_sync ~registry:reg ?note ~name ~clock f
  in
  let inside = ref None in
  span ~note:(Text "done") "root" (fun () ->
      inside := Telemetry.Trace.current ();
      span "child" (fun () -> ()));
  check Alcotest.bool "ambient restored" true (Telemetry.Trace.current () = None);
  (match Telemetry.Trace.spans ~registry:reg () with
   | [ child; root ] ->
     check Alcotest.string "oldest first" "child" child.sp_name;
     check Alcotest.bool "root has no parent" true (root.sp_parent = None);
     check Alcotest.bool "root was ambient inside" true
       (!inside
        = Some { Telemetry.Trace.trace_id = root.sp_trace;
                 span_id = root.sp_span });
     check Alcotest.bool "child joins the trace" true
       (child.sp_trace = root.sp_trace && child.sp_parent = Some root.sp_span);
     check Alcotest.string "note recorded" "done" root.sp_note;
     check Alcotest.string "no note reads empty" "" child.sp_note;
     check
       (Alcotest.list (Alcotest.float 0.0))
       "start and stop from the clock" [ 1.0; 4.0; 2.0; 3.0 ]
       [ root.sp_start; root.sp_stop; child.sp_start; child.sp_stop ]
   | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* a third finished span wraps the capacity-2 ring *)
  span "extra" (fun () -> ());
  check Alcotest.int "ring capped" 2
    (List.length (Telemetry.Trace.spans ~registry:reg ()));
  check Alcotest.int "lifetime count" 3
    (Telemetry.Trace.spans_recorded ~registry:reg ());
  check
    (Alcotest.list Alcotest.string)
    "oldest fell off" [ "root"; "extra" ]
    (List.map
       (fun (s : Telemetry.Trace.span) -> s.sp_name)
       (Telemetry.Trace.spans ~registry:reg ()));
  (* an exception still closes the span *)
  (try span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  check Alcotest.bool "span recorded on exception" true
    (List.exists
       (fun (s : Telemetry.Trace.span) -> s.sp_name = "raises")
       (Telemetry.Trace.spans ~registry:reg ()));
  check Alcotest.bool "ambient restored after exception" true
    (Telemetry.Trace.current () = None)

(* The span ring grows its slots on demand up to its capacity, then
   wraps: whatever the capacity and however many spans were recorded
   (with a reset somewhere in between), it holds the newest ones,
   oldest first, each with its own name, times and note. *)
let prop_span_ring_keeps_newest =
  QCheck.Test.make ~name:"span ring keeps the newest spans" ~count:200
    QCheck.(triple (int_range 1 300) (int_range 0 700) (int_range 0 700))
    (fun (capacity, before_reset, after_reset) ->
       Telemetry.set_enabled true;
       let registry = Telemetry.create_registry ~span_capacity:capacity () in
       let record i =
         Telemetry.Trace.span_sync ~registry ~note:(Routes i)
           ~name:(string_of_int i)
           ~clock:(fun () -> float_of_int i)
           (fun () -> ())
       in
       for i = 1 to before_reset do record i done;
       Telemetry.reset ~registry ();
       for i = 1 to after_reset do record i done;
       let first = max 1 (after_reset - capacity + 1) in
       let expected = List.init (after_reset - first + 1) (fun k -> first + k) in
       Telemetry.Trace.spans_recorded ~registry () = before_reset + after_reset
       && List.map
            (fun (s : Telemetry.Trace.span) ->
               (s.sp_name, s.sp_start, s.sp_stop, s.sp_note))
            (Telemetry.Trace.spans ~registry ())
          = List.map
              (fun i ->
                 ( string_of_int i, float_of_int i, float_of_int i,
                   string_of_int i ^ " routes" ))
              expected)

(* Recording a span writes immediates into preallocated slots: once the
   ring has grown to its capacity, a call allocates only the [Some] box
   of its optional [?note] (2 words). *)
let test_span_sync_allocates_no_record () =
  Telemetry.set_enabled true;
  let registry = Some (Telemetry.create_registry ()) in
  let note = Telemetry.Trace.Net (Ipv4net.of_string_exn "10.9.9.0/24") in
  let clock () = 1.5 in
  let thunk () = () in
  let record () =
    Telemetry.Trace.span_sync ?registry ~note ~name:"rib.route_add" ~clock
      thunk
  in
  Telemetry.Trace.with_ctx
    (Some { Telemetry.Trace.trace_id = 1; span_id = 1 })
    (fun () ->
       (* Fill the default 8,192-span ring so its slots are full size. *)
       for _ = 1 to 10_000 do record () done;
       let before = Gc.minor_words () in
       for _ = 1 to 10_000 do record () done;
       let words = int_of_float (Gc.minor_words () -. before) in
       if words > 2 * 10_000 then
         Alcotest.failf "%d words for 10,000 spans (at most 20,000)" words)

let test_span_wire () =
  let s =
    { Telemetry.Trace.sp_trace = 3; sp_span = 9; sp_parent = Some 4;
      sp_name = "rib.route|add"; sp_start = 1.25; sp_stop = 1.5;
      sp_note = "10.0.0.0/24" }
  in
  (match Telemetry_xrl.span_of_string (Telemetry_xrl.span_to_string s) with
   | None -> Alcotest.fail "wire round trip failed"
   | Some s' ->
     check Alcotest.string "separator sanitized" "rib.route/add"
       s'.Telemetry.Trace.sp_name;
     check Alcotest.bool "fields preserved" true
       (s'.sp_trace = 3 && s'.sp_span = 9 && s'.sp_parent = Some 4
        && s'.sp_stop = 1.5 && s'.sp_note = "10.0.0.0/24"));
  let root = { s with Telemetry.Trace.sp_parent = None; sp_name = "n" } in
  (match Telemetry_xrl.span_of_string (Telemetry_xrl.span_to_string root) with
   | Some { Telemetry.Trace.sp_parent = None; _ } -> ()
   | _ -> Alcotest.fail "rootless parent round trip");
  check Alcotest.bool "garbage rejected" true
    (Telemetry_xrl.span_of_string "not|enough|fields" = None)

(* --- trace propagation across transports -------------------------------- *)

(* A caller under an ambient context calls a probe target; the handler
   must observe exactly that context (carried by the _xorp_trace
   argument and stripped before dispatch), and the reply callback must
   run under the sender's context again. *)
let run_propagation_scenario ~families ~pref ~mode () =
  Telemetry.set_enabled true;
  let loop = Eventloop.create ~mode () in
  let finder = Finder.create () in
  let target =
    Xrl_router.create ~families finder loop ~class_name:"probe" ()
  in
  let seen = ref None in
  Xrl_router.add_handler target ~interface:"probe" ~method_name:"ctx"
    (fun _args reply ->
       seen := Telemetry.Trace.current ();
       reply ok []);
  let caller =
    Xrl_router.create ~families ~family_pref:pref finder loop
      ~class_name:"caller" ()
  in
  let root_ctx = ref None in
  let reply_ctx = ref None in
  let got = ref false in
  Telemetry.Trace.span_sync ~name:"client" ~clock:(scripted_clock ())
    (fun () ->
       root_ctx := Telemetry.Trace.current ();
       Xrl_router.send caller
         (Xrl.make ~target:"probe" ~interface:"probe" ~method_name:"ctx" [])
         (fun err _ ->
            check Alcotest.bool "call ok" true (Xrl_error.is_ok err);
            reply_ctx := Telemetry.Trace.current ();
            got := true));
  Eventloop.run ~until:(fun () -> !got) loop;
  let root_ctx = !root_ctx in
  check Alcotest.bool "caller had a context" true (root_ctx <> None);
  check Alcotest.bool "handler saw the caller's context" true
    (!seen = root_ctx);
  check Alcotest.bool "reply ran under the caller's context" true
    (!reply_ctx = root_ctx);
  Xrl_router.shutdown caller;
  Xrl_router.shutdown target

let test_propagation_intra () =
  run_propagation_scenario ~families:[ Pf_intra.family ]
    ~pref:[ "x-intra" ] ~mode:`Sim ()

let test_propagation_tcp () =
  run_propagation_scenario ~families:[ Pf_tcp.family ] ~pref:[ "stcp" ]
    ~mode:`Real ()

(* A trace context arrives from the wire as [_xorp_trace:list] of two
   positive u64s. Every other atom under the reserved name — the old
   text form, another type or arity, a non-positive or out-of-range id,
   a second trace atom — is stripped before dispatch and ignored: the
   handler sees only its own arguments and no ambient context. *)
let run_forged_trace_scenario ~families ~pref ~mode () =
  Telemetry.set_enabled true;
  let loop = Eventloop.create ~mode () in
  let finder = Finder.create () in
  let target =
    Xrl_router.create ~families finder loop ~class_name:"probe" ()
  in
  let seen = ref (None, []) in
  Xrl_router.add_handler target ~interface:"probe" ~method_name:"ctx"
    (fun args reply ->
       seen := (Telemetry.Trace.current (), args);
       reply ok []);
  let caller =
    Xrl_router.create ~families ~family_pref:pref finder loop
      ~class_name:"caller" ()
  in
  let own = Xrl_atom.u32 "x" 7 in
  let trace v = Xrl_atom.make Telemetry.Trace.trace_atom_name v in
  let ids a b = Xrl_atom.List [ U64 a; U64 b ] in
  let call_with args =
    let got = ref false in
    Xrl_router.send caller
      (Xrl.make ~target:"probe" ~interface:"probe" ~method_name:"ctx" args)
      (fun err _ ->
         check Alcotest.bool "call ok" true (Xrl_error.is_ok err);
         got := true);
    Eventloop.run ~until:(fun () -> !got) loop;
    let ctx, args = !seen in
    check Alcotest.bool "handler sees only its own argument" true
      (List.length args = 1 && Xrl_atom.equal (List.hd args) own);
    ctx
  in
  (* Senders put the trace atom first; a peer may put it anywhere. *)
  let call extra =
    let first = call_with (extra @ [ own ]) in
    check Alcotest.bool "same context wherever the atom sits" true
      (call_with (own :: extra) = first);
    first
  in
  check Alcotest.bool "two positive u64s are a context" true
    (call [ trace (ids 12L 34L) ]
     = Some { Telemetry.Trace.trace_id = 12; span_id = 34 });
  check Alcotest.bool "the largest id is a context" true
    (call [ trace (ids (Int64.of_int max_int) 1L) ]
     = Some { Telemetry.Trace.trace_id = max_int; span_id = 1 });
  List.iter
    (fun (what, extra) ->
       check Alcotest.bool (what ^ " is ignored") true (call extra = None))
    [ ("the old text form", [ trace (Txt "12.34") ]);
      ("hex and signed text", [ trace (Txt "0x10.-3") ]);
      ("one id", [ trace (List [ U64 12L ]) ]);
      ("three ids", [ trace (List [ U64 12L; U64 34L; U64 56L ]) ]);
      ("u32 ids", [ trace (List [ U32 12; U32 34 ]) ]);
      ("i32 ids", [ trace (List [ I32 12; I32 34 ]) ]);
      ("txt ids", [ trace (List [ Txt "12"; Txt "34" ]) ]);
      ("a bare u64", [ trace (U64 12L) ]);
      ("a zero trace id", [ trace (ids 0L 34L) ]);
      ("a zero span id", [ trace (ids 12L 0L) ]);
      ("a negative id", [ trace (ids 12L (-3L)) ]);
      ("an id past max_int", [ trace (ids (Int64.succ (Int64.of_int max_int)) 1L) ]);
      ("a second trace atom", [ trace (ids 12L 34L); trace (ids 56L 78L) ]) ];
  Xrl_router.shutdown caller;
  Xrl_router.shutdown target

let test_forged_trace_intra () =
  run_forged_trace_scenario ~families:[ Pf_intra.family ]
    ~pref:[ "x-intra" ] ~mode:`Sim ()

let test_forged_trace_tcp () =
  run_forged_trace_scenario ~families:[ Pf_tcp.family ] ~pref:[ "stcp" ]
    ~mode:`Real ()

(* --- the telemetry/0.1 XRL service -------------------------------------- *)

let telemetry_xrl method_name args =
  Xrl.make ~target:"telemetry" ~interface:"telemetry" ~version:"0.1"
    ~method_name args

let test_telemetry_xrl_service () =
  Telemetry.set_enabled true;
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let service = Telemetry_xrl.expose finder loop in
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let c = Telemetry.counter "svc.test.counter" in
  Telemetry.incr c;
  Telemetry.incr c;
  Telemetry.observe (Telemetry.histogram "svc.test.hist") 5.0;
  Telemetry.Trace.span_sync ~note:(Text "n") ~name:"svc.test.span"
    ~clock:(scripted_clock ()) (fun () -> ());
  let call xrl = Xrl_router.call_blocking caller xrl in
  (* list *)
  let err, reply = call (telemetry_xrl "list" []) in
  check Alcotest.bool "list ok" true (Xrl_error.is_ok err);
  let listed =
    Xrl_atom.get_list reply "metrics"
    |> List.filter_map (function Xrl_atom.Txt s -> Some s | _ -> None)
  in
  check Alcotest.bool "counter listed" true
    (List.mem "svc.test.counter|counter" listed);
  check Alcotest.bool "histogram listed" true
    (List.mem "svc.test.hist|histogram" listed);
  (* get *)
  let err, reply =
    call (telemetry_xrl "get" [ Xrl_atom.txt "name" "svc.test.counter" ])
  in
  check Alcotest.bool "get ok" true (Xrl_error.is_ok err);
  check Alcotest.string "counter kind" "counter"
    (Xrl_atom.get_txt reply "type");
  check Alcotest.string "counter value" "2" (Xrl_atom.get_txt reply "value");
  let err, reply =
    call (telemetry_xrl "get" [ Xrl_atom.txt "name" "svc.test.hist" ])
  in
  check Alcotest.bool "get hist ok" true (Xrl_error.is_ok err);
  check Alcotest.int "hist count" 1 (Xrl_atom.get_u32 reply "count");
  check (Alcotest.float 1e-9) "hist p50 (bucket bound of 5.0)" 5.0
    (float_of_string (Xrl_atom.get_txt reply "p50"));
  let err, _ =
    call (telemetry_xrl "get" [ Xrl_atom.txt "name" "no.such.metric" ])
  in
  check Alcotest.bool "missing metric errors" false (Xrl_error.is_ok err);
  (* spans *)
  let err, reply = call (telemetry_xrl "spans" []) in
  check Alcotest.bool "spans ok" true (Xrl_error.is_ok err);
  let spans =
    Xrl_atom.get_list reply "spans"
    |> List.filter_map (function
      | Xrl_atom.Txt s -> Telemetry_xrl.span_of_string s
      | _ -> None)
  in
  check Alcotest.bool "recorded span served" true
    (List.exists
       (fun s -> s.Telemetry.Trace.sp_name = "svc.test.span")
       spans);
  (* snapshot + reset *)
  let err, reply = call (telemetry_xrl "snapshot" []) in
  check Alcotest.bool "snapshot ok" true (Xrl_error.is_ok err);
  let json = Xrl_atom.get_txt reply "json" in
  check Alcotest.bool "snapshot mentions metrics" true
    (Astring.String.is_infix ~affix:"\"metrics\"" json);
  check Alcotest.bool "snapshot mentions the counter" true
    (Astring.String.is_infix ~affix:"svc.test.counter" json);
  let err, _ = call (telemetry_xrl "reset" []) in
  check Alcotest.bool "reset ok" true (Xrl_error.is_ok err);
  check Alcotest.int "reset zeroed the counter" 0 (Telemetry.counter_value c);
  Xrl_router.shutdown caller;
  Xrl_router.shutdown service

(* Each kind of note is kept as immediates and formatted only when read;
   every reader must show the text these notes have always had. *)
let test_notes_render_when_read () =
  Telemetry.set_enabled true;
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let service = Telemetry_xrl.expose finder loop in
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  Telemetry.reset ();
  let notes =
    [ (Some (Telemetry.Trace.Net (Ipv4net.of_string_exn "10.9.9.0/24")),
       "10.9.9.0/24");
      (Some (Routes 3), "3 routes");
      (Some (Update (Ipv4.of_string_exn "192.0.2.1", 5, 2)), "192.0.2.1 +5 -2");
      (Some (Text "free text"), "free text");
      (None, "") ]
  in
  List.iter
    (fun (note, _) ->
       Telemetry.Trace.span_sync ?note ~name:"note.test" ~clock:(fun () -> 0.5)
         (fun () -> ()))
    notes;
  let expected = List.map snd notes in
  let spans = Telemetry.Trace.spans () in
  check (Alcotest.list Alcotest.string) "Trace.spans" expected
    (List.map (fun (s : Telemetry.Trace.span) -> s.sp_note) spans);
  let json = Telemetry.snapshot_json () in
  List.iter
    (fun (s : Telemetry.Trace.span) ->
       let entry =
         Printf.sprintf
           {|{"trace":%d,"span":%d,"parent":null,"name":"note.test","start":0.5,"stop":0.5,"note":"%s"}|}
           s.sp_trace s.sp_span s.sp_note
       in
       check Alcotest.bool ("snapshot_json has " ^ entry) true
         (Astring.String.is_infix ~affix:entry json))
    spans;
  (* render_table shows only span totals; the lifetime count outlives
     the reset. *)
  check Alcotest.bool "render_table totals" true
    (Astring.String.is_infix
       ~affix:
         (Printf.sprintf "Spans: 5 live, %d recorded\n"
            (Telemetry.Trace.spans_recorded ()))
       (Telemetry.render_table ()));
  let err, reply =
    Xrl_router.call_blocking caller (telemetry_xrl "spans" [])
  in
  check Alcotest.bool "spans ok" true (Xrl_error.is_ok err);
  check
    (Alcotest.list Alcotest.string)
    "telemetry/0.1/spans"
    (List.map
       (fun (s : Telemetry.Trace.span) ->
          Printf.sprintf "%d|%d||note.test|0.500000|0.500000|%s" s.sp_trace
            s.sp_span s.sp_note)
       spans)
    (List.filter_map
       (function Xrl_atom.Txt s -> Some s | _ -> None)
       (Xrl_atom.get_list reply "spans"));
  Xrl_router.shutdown caller;
  Xrl_router.shutdown service

(* --- end-to-end: causally linked spans across BGP, RIB and FEA ------- *)

(* Router [a] (10.0.0.1) takes XRLs from the test; router [b]
   (10.0.0.2) is its eBGP peer. Three chains must show up in a's spans,
   each note formatted as it always was: a one-route run
   (rib.route_add_bulk -> rib.fea_send -> fea.install_bulk, noting the
   prefix), a three-route run (rib.route_add_bulk -> rib.fea_send ->
   fea.install_bulk, noting "3 routes"), and an UPDATE from b
   (bgp.update, noting the peer and its counts, down through BGP's
   one-route run into the RIB and on to the FEA, each span noting the
   prefix). *)
let test_route_add_trace_chain () =
  let config_a =
    {|
interfaces { interface eth0 { address: 10.0.0.1 } }
protocols { bgp { local-as: 65001 bgp-id: 1.1.1.1
  peer 10.0.0.2 { as: 65002 local-ip: 10.0.0.1 } } }
|}
  and config_b =
    {|
interfaces { interface eth0 { address: 10.0.0.2 } }
protocols { bgp { local-as: 65002 bgp-id: 2.2.2.2
  peer 10.0.0.1 { as: 65001 local-ip: 10.0.0.2 } } }
|}
  in
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let boot config =
    match Rtrmgr.boot ~loop ~netsim ~config () with
    | Ok r -> r
    | Error e -> Alcotest.failf "boot failed: %s" (String.concat "; " e)
  in
  let ra = boot config_a and rb = boot config_b in
  let caller = Rib.xrl_router (Rtrmgr.rib ra) in
  let call xrl =
    let err, reply = Xrl_router.call_blocking caller xrl in
    check Alcotest.bool (Xrl.method_id xrl ^ " ok") true (Xrl_error.is_ok err);
    reply
  in
  let settle () = Eventloop.run_until_time loop (Eventloop.now loop +. 2.0) in
  Eventloop.run_until_time loop 10.0;
  (* Drop boot-time noise so the chains below are unambiguous. *)
  ignore (call (telemetry_xrl "reset" []));
  let rib_xrl method_name args =
    Xrl.make ~target:"rib" ~interface:"rib" ~method_name args
  in
  let add_run ~urgent nets =
    ignore
      (call
         (rib_xrl "add_routes4"
            [ Xrl_atom.boolean "urgent" urgent;
              Xrl_atom.binary "routes"
                (Route_pack.pack_adds
                   (List.map
                      (fun n ->
                         { Route_pack.net = Ipv4net.of_string_exn n;
                           nexthop = Ipv4.of_string_exn "10.0.0.254";
                           ifname = ""; protocol = "static"; metric = 0 })
                      nets)) ]));
    (* The RIB->FEA send is deferred; let it happen. *)
    settle ()
  in
  add_run ~urgent:true [ "10.9.9.0/24" ];
  add_run ~urgent:false [ "10.7.1.0/24"; "10.7.2.0/24"; "10.7.3.0/24" ];
  Bgp_process.originate (Option.get (Rtrmgr.bgp rb))
    (Ipv4net.of_string_exn "128.16.0.0/16");
  settle ();
  let spans =
    Xrl_atom.get_list (call (telemetry_xrl "spans" [])) "spans"
    |> List.filter_map (function
      | Xrl_atom.Txt s -> Telemetry_xrl.span_of_string s
      | _ -> None)
  in
  (* The span named [name] under [parent] (a root when [None]); checks
     its note. *)
  let find ?note name parent =
    match
      List.find_opt
        (fun (s : Telemetry.Trace.span) ->
           s.sp_name = name
           && Option.fold ~none:true ~some:(( = ) s.sp_note) note
           &&
           match parent with
           | None -> s.sp_parent = None
           | Some (p : Telemetry.Trace.span) ->
             s.sp_trace = p.sp_trace && s.sp_parent = Some p.sp_span)
        spans
    with
    | Some s -> s
    | None ->
      Alcotest.failf "no %s span%s %s" name
        (match note with Some n -> " noting " ^ n | None -> "")
        (match parent with
         | Some p -> "under " ^ p.Telemetry.Trace.sp_name
         | None -> "at the root")
  in
  let root = find ~note:"10.9.9.0/24" "rib.route_add_bulk" None in
  let send = find ~note:"10.9.9.0/24" "rib.fea_send" (Some root) in
  ignore (find ~note:"10.9.9.0/24" "fea.install_bulk" (Some send));
  let root = find ~note:"3 routes" "rib.route_add_bulk" None in
  let send = find ~note:"3 routes" "rib.fea_send" (Some root) in
  ignore (find ~note:"3 routes" "fea.install_bulk" (Some send));
  let update = find ~note:"10.0.0.2 +1 -0" "bgp.update" None in
  let send = find ~note:"128.16.0.0/16" "bgp.rib_send" (Some update) in
  let add = find ~note:"128.16.0.0/16" "rib.route_add_bulk" (Some send) in
  let send = find ~note:"128.16.0.0/16" "rib.fea_send" (Some add) in
  ignore (find ~note:"128.16.0.0/16" "fea.install_bulk" (Some send));
  Rtrmgr.shutdown ra;
  Rtrmgr.shutdown rb

(* --- profile points --------------------------------------------------- *)

let net_of i = Ipv4net.make (Ipv4.of_int (i lsl 8)) 24

let test_profiler_basics () =
  let registry = Telemetry.create_registry () in
  let loop = Eventloop.create () in
  let clock () = Eventloop.now loop in
  let alpha = Telemetry.Profile.point ~registry "alpha" in
  let beta = Telemetry.Profile.point ~registry "beta" in
  let n1 = Ipv4net.of_string_exn "10.0.1.0/24"
  and n2 = Ipv4net.of_string_exn "10.0.2.0/24" in
  Telemetry.Profile.record alpha ~clock Add n1; (* dropped: off *)
  Telemetry.Profile.enable ~registry "alpha";
  Telemetry.Profile.record alpha ~clock Add n1;
  Telemetry.Profile.record beta ~clock Add n1; (* dropped: off *)
  ignore
    (Eventloop.after loop 12.5 (fun () ->
         Telemetry.Profile.record alpha ~clock Delete n2));
  Eventloop.run loop;
  (match Telemetry.Profile.records ~registry () with
   | [ r1; r2 ] ->
     check Alcotest.string "point" "alpha" r1.point;
     check Alcotest.string "payload 1" "add 10.0.1.0/24"
       (Telemetry.Profile.payload r1);
     check Alcotest.string "payload 2" "delete 10.0.2.0/24"
       (Telemetry.Profile.payload r2);
     check (Alcotest.float 1e-9) "sim timestamp" 12.5 r2.time
   | l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  (* the paper's textual record format *)
  check
    (Alcotest.list Alcotest.string)
    "text"
    [ "alpha 0 000000 add 10.0.1.0/24"; "alpha 12 500000 delete 10.0.2.0/24" ]
    (Telemetry.Profile.to_strings ~registry ());
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.bool Alcotest.int))
    "points" [ ("alpha", true, 2); ("beta", false, 0) ]
    (Telemetry.Profile.list_points ~registry ());
  (* A point resolved under a namespace carries it in its name. *)
  let gamma =
    Telemetry.with_namespace "r1." (fun () ->
        Telemetry.Profile.point ~registry "gamma")
  in
  Telemetry.Profile.enable ~registry "r1.gamma";
  Telemetry.Profile.record gamma ~clock Add n1;
  check
    (Alcotest.list Alcotest.string)
    "drained oldest first" [ "alpha"; "alpha"; "r1.gamma" ]
    (List.map
       (fun (r : Telemetry.Profile.record) -> r.point)
       (Telemetry.Profile.drain ~registry ()));
  check Alcotest.int "drain empties the ring" 0
    (List.length (Telemetry.Profile.records ~registry ()));
  (* reset drops records and counts; switches stay *)
  Telemetry.Profile.record alpha ~clock Add n1;
  Telemetry.reset ~registry ();
  check Alcotest.int "reset drops records" 0
    (List.length (Telemetry.Profile.records ~registry ()));
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.bool Alcotest.int))
    "reset zeroes counts, keeps switches"
    [ ("alpha", true, 0); ("beta", false, 0); ("r1.gamma", true, 0) ]
    (Telemetry.Profile.list_points ~registry ())

let test_profiler_enable_all () =
  let registry = Telemetry.create_registry () in
  let clock () = 0.0 in
  let a = Telemetry.Profile.point ~registry "a" in
  let b = Telemetry.Profile.point ~registry "b" in
  Telemetry.Profile.enable_all ~registry ();
  Telemetry.Profile.record a ~clock Add (net_of 1);
  Telemetry.Profile.record b ~clock Add (net_of 2);
  check Alcotest.int "both recorded" 2
    (List.length (Telemetry.Profile.records ~registry ()));
  Telemetry.Profile.disable_all ~registry ();
  Telemetry.Profile.record a ~clock Add (net_of 3);
  check Alcotest.int "no more" 2
    (List.length (Telemetry.Profile.records ~registry ()))

(* Only a point some component registered can be switched: a typo
   must not create a point that records nothing. *)
let test_profiler_unknown_point () =
  let registry = Telemetry.create_registry () in
  ignore (Telemetry.Profile.point ~registry "fea_kernel");
  ignore (Telemetry.Profile.point ~registry "fea_arrived");
  List.iter
    (fun switch ->
       match switch "fea_kernal" with
       | () -> Alcotest.fail "unknown point accepted"
       | exception Invalid_argument msg ->
         check Alcotest.string "names the known points"
           "unknown profile point fea_kernal (known: fea_arrived, fea_kernel)"
           msg)
    [ Telemetry.Profile.enable ~registry; Telemetry.Profile.disable ~registry ];
  check Alcotest.int "no point created" 2
    (List.length (Telemetry.Profile.list_points ~registry ()))

(* Points record whatever the global switch for metrics and spans
   says. *)
let test_profiler_ignores_set_enabled () =
  let registry = Telemetry.create_registry () in
  let p = Telemetry.Profile.point ~registry "pt" in
  Telemetry.Profile.enable ~registry "pt";
  Telemetry.set_enabled false;
  Telemetry.Profile.record p ~clock:(fun () -> 1.0) Add (net_of 1);
  Telemetry.set_enabled true;
  check Alcotest.int "recorded" 1
    (List.length (Telemetry.Profile.records ~registry ()))

let test_profiler_usec_carry () =
  let registry = Telemetry.create_registry () in
  let loop = Eventloop.create () in
  let p = Telemetry.Profile.point ~registry "pt" in
  Telemetry.Profile.enable ~registry "pt";
  (* 1.9999996s rounds to 2_000_000 us past second 1: must carry into
     "2 000000", never render as "1 1000000". *)
  ignore
    (Eventloop.after loop 1.9999996 (fun () ->
         Telemetry.Profile.record p
           ~clock:(fun () -> Eventloop.now loop)
           Add (net_of 1)));
  Eventloop.run loop;
  match Telemetry.Profile.to_strings ~registry () with
  | [ s ] -> check Alcotest.string "carry" "pt 2 000000 add 0.0.1.0/24" s
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

(* With its ring grown to full size, a point records into preallocated
   slots: on or off, 10,000 records allocate nothing, given a clock
   that returns the float it holds (as the simulated loop's does). *)
let test_profiler_allocates_nothing () =
  let registry = Telemetry.create_registry () in
  let loop = Eventloop.create () in
  let clock () = Eventloop.now loop in
  let p = Telemetry.Profile.point ~registry "pt" in
  let net = net_of 7 in
  let words () =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do Telemetry.Profile.record p ~clock Add net done;
    int_of_float (Gc.minor_words () -. before)
  in
  check Alcotest.int "words for 10,000 records at an off point" 0 (words ());
  Telemetry.Profile.enable ~registry "pt";
  (* Fill the 65,536-record ring so its slots are full size. *)
  for _ = 1 to 7 do ignore (words ()) done;
  check Alcotest.int "words for 10,000 records at an on point" 0 (words ())

(* Points and spans keep separate rings: filling either evicts nothing
   from the other. *)
let test_profiler_rings_apart () =
  let registry = Telemetry.create_registry ~span_capacity:4 () in
  let clock () = 1.0 in
  let span name =
    Telemetry.Trace.span_sync ~registry ~name ~clock (fun () -> ())
  in
  let span_names () =
    List.map
      (fun (s : Telemetry.Trace.span) -> s.sp_name)
      (Telemetry.Trace.spans ~registry ())
  in
  let p = Telemetry.Profile.point ~registry "pt" in
  Telemetry.Profile.enable ~registry "pt";
  span "kept";
  let capacity = 65_536 in
  for i = 1 to capacity + 5 do
    Telemetry.Profile.record p ~clock Add (net_of i)
  done;
  check (Alcotest.list Alcotest.string) "a full point ring evicts no span"
    [ "kept" ] (span_names ());
  let nets () =
    List.map
      (fun (r : Telemetry.Profile.record) -> r.net)
      (Telemetry.Profile.records ~registry ())
  in
  let expected = List.init capacity (fun k -> net_of (k + 6)) in
  check Alcotest.bool "the point ring keeps the newest 65,536" true
    (nets () = expected);
  for i = 1 to 10 do span (string_of_int i) done;
  check (Alcotest.list Alcotest.string) "the span ring wrapped"
    [ "7"; "8"; "9"; "10" ] (span_names ());
  check Alcotest.bool "a full span ring evicts no point record" true
    (nets () = expected)

let () =
  Alcotest.run "xorp_telemetry"
    [ ("histogram",
       [ Alcotest.test_case "bucket layout" `Quick test_histogram_buckets;
         Alcotest.test_case "stats and quantiles" `Quick test_histogram_stats;
         QCheck_alcotest.to_alcotest prop_quantile ]);
      ("metrics",
       [ Alcotest.test_case "registry" `Quick test_metrics_registry;
         Alcotest.test_case "ambient namespace" `Quick test_ambient_namespace;
         Alcotest.test_case "namespaces isolate same-class components" `Quick
           test_namespaces_isolate_same_class_components;
         Alcotest.test_case "reset_prefix scopes to a namespace" `Quick
           test_reset_prefix;
         Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop ]);
      ("tracing",
       [ Alcotest.test_case "ambient context" `Quick test_trace_ambient;
         Alcotest.test_case "spans and ring" `Quick test_trace_spans_and_ring;
         QCheck_alcotest.to_alcotest prop_span_ring_keeps_newest;
         Alcotest.test_case "recording a span allocates no record" `Quick
           test_span_sync_allocates_no_record;
         Alcotest.test_case "span wire form" `Quick test_span_wire ]);
      ("propagation",
       [ Alcotest.test_case "across pf_intra" `Quick test_propagation_intra;
         Alcotest.test_case "across pf_tcp" `Quick test_propagation_tcp;
         Alcotest.test_case "malformed trace atoms ignored on pf_intra" `Quick
           test_forged_trace_intra;
         Alcotest.test_case "malformed trace atoms ignored on pf_tcp" `Quick
           test_forged_trace_tcp ]);
      ("xrl-service",
       [ Alcotest.test_case "telemetry/0.1 round trip" `Quick
           test_telemetry_xrl_service;
         Alcotest.test_case "notes render as text when read" `Quick
           test_notes_render_when_read ]);
      ("end-to-end",
       [ Alcotest.test_case "route_add trace chain" `Quick
           test_route_add_trace_chain ]);
      ("profiler",
       [ Alcotest.test_case "basics" `Quick test_profiler_basics;
         Alcotest.test_case "enable_all" `Quick test_profiler_enable_all;
         Alcotest.test_case "unknown point is an error" `Quick
           test_profiler_unknown_point;
         Alcotest.test_case "points ignore set_enabled" `Quick
           test_profiler_ignores_set_enabled;
         Alcotest.test_case "usec rounding carry" `Quick
           test_profiler_usec_carry;
         Alcotest.test_case "recording allocates nothing" `Quick
           test_profiler_allocates_nothing;
         Alcotest.test_case "point and span rings stay apart" `Quick
           test_profiler_rings_apart ]) ]
