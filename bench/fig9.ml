(* Figure 9: XRL performance (XRLs/second) for the Intra-Process, TCP
   and UDP protocol families, as a function of the number of XRL
   arguments.

   Exactly the paper's methodology (§8.1): a transaction of 10,000
   XRLs with a pipeline window of 100 — the sender fires 100
   back-to-back, then one new request per response. UDP deliberately
   does not pipeline (it is the paper's early prototype, kept to show
   the cost), so its window degenerates to 1. Transports are real
   loopback sockets on a real select loop; intra-process is a direct
   call.

   Every XRL is its own frame, as in the paper. On top of the paper's
   three series this adds:
   - a route-install benchmark: the RIB's packed add_routes4 runs into
     the FEA, the one place calls are coalesced (a run of route changes
     packed into one XRL), against a baseline of the same routes sent
     as one add_routes4 call each;
   - machine-readable output in BENCH_xrl.json (full run only). *)

open Bench_util

let transaction_size = 10_000
let window = 100

let make_target finder loop families =
  let router =
    Xrl_router.create ~families finder loop ~class_name:"benchtarget" ()
  in
  Xrl_router.add_handler router ~interface:"bench" ~method_name:"noop"
    (fun _args reply -> reply Xrl_error.Ok_xrl []);
  router

let make_xrl nargs =
  Xrl.make ~target:"benchtarget" ~interface:"bench" ~method_name:"noop"
    (List.init nargs (fun i -> Xrl_atom.u32 (Printf.sprintf "arg%d" i) i))

(* Run one transaction; returns XRLs/second. Arguments are built per
   call, as a real caller would, so every family pays the per-argument
   cost (this is what makes the intra/TCP gap close as argument counts
   grow, as in the paper). *)
let run_transaction ?(size = transaction_size) ~loop ~caller ~nargs ~window ()
  =
  let completed = ref 0 in
  let launched = ref 0 in
  let failed = ref 0 in
  let rec fire () =
    if !launched < size then begin
      incr launched;
      Xrl_router.send caller (make_xrl nargs) (fun err _ ->
          if not (Xrl_error.is_ok err) then incr failed;
          incr completed;
          fire ())
    end
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to window do fire () done;
  run_real_until loop
    (fun () -> !completed >= size)
    ~timeout_s:120.0 "xrl transaction";
  let dt = Unix.gettimeofday () -. t0 in
  if !failed > 0 then failwith (Printf.sprintf "%d XRLs failed" !failed);
  float_of_int size /. dt

let family_of = function
  | "intra" -> (Pf_intra.family, "x-intra")
  | "tcp" -> (Pf_tcp.family, "stcp")
  | "udp" -> (Pf_udp.family, "sudp")
  | f -> invalid_arg f

let measure_family ?size fam_name nargs_list =
  let fam, pref = family_of fam_name in
  let loop = Eventloop.create ~mode:`Real () in
  let finder = Finder.create () in
  let target = make_target finder loop [ fam ] in
  let caller =
    Xrl_router.create ~families:[ fam ] ~family_pref:[ pref ] finder loop
      ~class_name:"benchcaller" ()
  in
  (* UDP has no pipelining: its sender serializes, so the effective
     window is 1 no matter what we submit; submit with the standard
     window anyway, faithfully to the harness. *)
  let results =
    List.map
      (fun nargs ->
         let rate = run_transaction ?size ~loop ~caller ~nargs ~window () in
         (nargs, rate))
      nargs_list
  in
  Xrl_router.shutdown caller;
  Xrl_router.shutdown target;
  results

(* --- route install into the FEA ---------------------------------------- *)

let install_route i =
  { Route_pack.net = Ipv4net.make (Ipv4.of_int ((10 lsl 24) lor (i lsl 8))) 24;
    nexthop = addr "192.0.2.1"; ifname = ""; protocol = "static"; metric = 0 }

(* Routes/s into a FEA over TCP: [sender finder loop] readies a sender
   and returns the send to time, which ends when the FIB holds all [n]
   routes, and the sender's shutdown. *)
let time_install n sender =
  let loop = Eventloop.create ~mode:`Real () in
  let finder = Finder.create () in
  let fea = Fea.create ~families:[ Pf_tcp.family ] finder loop () in
  let send, shutdown = sender finder loop in
  let t0 = Unix.gettimeofday () in
  send ();
  run_real_until loop
    (fun () -> Fib.size (Fea.fib fea) >= n)
    ~timeout_s:120.0 "route install";
  let dt = Unix.gettimeofday () -. t0 in
  shutdown ();
  Fea.shutdown fea;
  float_of_int n /. dt

(* The RIB's install leg. The routes are originated first, so each
   waits in the RIB's outbound FEA queue; the timed send is the flush,
   its packed add_routes4 runs, the wire, FEA dispatch and FIB
   insert. *)
let measure_rib_fea n =
  time_install n (fun finder loop ->
      let rib = Rib.create ~families:[ Pf_tcp.family ] finder loop () in
      for i = 0 to n - 1 do
        let r = install_route i in
        Result.get_ok
          (Rib.add_route rib ~protocol:r.protocol ~net:r.net
             ~nexthop:r.nexthop ())
      done;
      (ignore, fun () -> Rib.shutdown rib))

(* The baseline: the bench's own router sends the same routes as one
   one-route add_routes4 call each, built inside the timed send, with
   the RIB's retry policy. *)
let measure_per_call n =
  time_install n (fun finder loop ->
      let caller =
        Xrl_router.create ~families:[ Pf_tcp.family ] finder loop
          ~class_name:"benchcaller" ()
      in
      ( (fun () ->
          for i = 0 to n - 1 do
            Xrl_router.send ~retry:Xrl_router.default_retry caller
              (Xrl.make ~target:"fea" ~interface:"fea"
                 ~method_name:"add_routes4"
                 [ Xrl_atom.binary "routes"
                     (Route_pack.pack_adds [ install_route i ]) ])
              (fun _ _ -> ())
          done),
        fun () -> Xrl_router.shutdown caller ))

(* --- machine-readable output ----------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* series: (family, (nargs, rate) list) list
   install: (mode, routes, rate) list *)
let emit_json ~path ~size ~window series install =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"transaction_size\": %d,\n  \"window\": %d,\n  \"series\": [\n"
       size window);
  List.iteri
    (fun i (fam, points) ->
       if i > 0 then Buffer.add_string buf ",\n";
       Buffer.add_string buf
         (Printf.sprintf "    {\"family\": \"%s\", \"points\": ["
            (json_escape fam));
       List.iteri
         (fun j (nargs, rate) ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf "{\"nargs\": %d, \"xrls_per_sec\": %.1f}" nargs
                 rate))
         points;
       Buffer.add_string buf "]}")
    series;
  Buffer.add_string buf "\n  ],\n  \"rib_fea_install\": [\n";
  List.iteri
    (fun i (mode, routes, rate) ->
       if i > 0 then Buffer.add_string buf ",\n";
       Buffer.add_string buf
         (Printf.sprintf
            "    {\"mode\": \"%s\", \"routes\": %d, \"routes_per_sec\": %.1f}"
            (json_escape mode) routes rate))
    install;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "\nwrote %s\n" path

(* --- entry points ----------------------------------------------------- *)

let run () =
  header "Figure 9: XRL performance for various communication families";
  paper_note
    [ "10,000-XRL transactions, pipeline window 100 (UDP: no pipelining).";
      "Paper (1.1GHz Athlon): Intra ~12000/s at 0 args, TCP close behind";
      "and converging with Intra as argument count grows; UDP several";
      "times slower because each XRL pays a full round trip." ];
  let points = [ 0; 5; 10; 15; 20; 25 ] in
  let all =
    List.map
      (fun fam -> (fam, measure_family fam points))
      [ "intra"; "tcp"; "udp" ]
  in
  pf "\n%-6s %12s %12s %12s  (XRLs/second)\n" "#args" "Intra" "TCP" "UDP";
  List.iter
    (fun nargs ->
       let rate fam = List.assoc nargs (List.assoc fam all) in
       pf "%-6d %12.0f %12.0f %12.0f\n" nargs (rate "intra") (rate "tcp")
         (rate "udp"))
    points;
  (* Shape checks, mirroring the paper's qualitative claims. *)
  let r fam n = List.assoc n (List.assoc fam all) in
  pf "\nshape: intra/tcp ratio at 0 args:  %.2fx (paper: >1)\n"
    (r "intra" 0 /. r "tcp" 0);
  pf "shape: intra/tcp ratio at 25 args: %.2fx (paper: ~1, gap closes)\n"
    (r "intra" 25 /. r "tcp" 25);
  pf "shape: tcp/udp ratio at 0 args:    %.2fx (paper: >>1, pipelining wins)\n"
    (r "tcp" 0 /. r "udp" 0);
  let n_routes = 20_000 in
  pf "\nRoute install into the FEA, %d routes over TCP:\n" n_routes;
  let per_route = measure_per_call n_routes in
  let bulk = measure_rib_fea n_routes in
  pf "  one call per route: %10.0f routes/s\n" per_route;
  pf "  RIB, packed runs:   %10.0f routes/s\n" bulk;
  pf "  speedup:            %10.2fx (target: >= 3x)\n" (bulk /. per_route);
  emit_json ~path:"BENCH_xrl.json" ~size:transaction_size ~window all
    [ ("per_route", n_routes, per_route); ("bulk", n_routes, bulk) ]

(* Short CI variant: one TCP transaction plus a small install each way,
   with sanity bounds loose enough for shared runners. It writes no
   JSON, so the committed BENCH_xrl.json stays a full run. *)
let smoke () =
  header "Smoke: short fig9 TCP transaction + packed route install";
  let size = 2_000 in
  let points = [ 0; 10 ] in
  let tcp = measure_family ~size "tcp" points in
  pf "%-6s %12s  (XRLs/second, %d-XRL transaction)\n" "#args" "TCP" size;
  List.iter (fun (nargs, rate) -> pf "%-6d %12.0f\n" nargs rate) tcp;
  let n_routes = 5_000 in
  let per_route = measure_per_call n_routes in
  let bulk = measure_rib_fea n_routes in
  pf "FEA install, %d routes: one call per route %.0f/s, RIB packed \
      runs %.0f/s (%.2fx)\n"
    n_routes per_route bulk (bulk /. per_route);
  if bulk < per_route then
    failwith "smoke: the RIB's packed install is slower than one call per route";
  pf "smoke ok\n%!"
