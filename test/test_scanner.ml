(* Tests for the scanner-based BGP baseline: correctness of the
   scanner design and, crucially, the latency contrast with the
   event-driven router that Figure 13 is about. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let run_for loop seconds =
  Eventloop.run_until_time loop (Eventloop.now loop +. seconds)

let scanner_pair ?(scan_interval = 30.0) () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a =
    Scanner_bgp.create loop netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1")
      ~scan_interval ()
  in
  let b =
    Scanner_bgp.create loop netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2")
      ~scan_interval ()
  in
  Scanner_bgp.add_peer a ~peer_addr:(addr "10.0.0.2")
    ~local_addr:(addr "10.0.0.1") ~peer_as:65002 ();
  Scanner_bgp.add_peer b ~peer_addr:(addr "10.0.0.1")
    ~local_addr:(addr "10.0.0.2") ~peer_as:65001 ();
  Scanner_bgp.start a;
  Scanner_bgp.start b;
  run_for loop 2.0;
  (loop, a, b)

let test_establishment () =
  let _, a, b = scanner_pair () in
  check Alcotest.int "a established" 1 (Scanner_bgp.established_count a);
  check Alcotest.int "b established" 1 (Scanner_bgp.established_count b)

let test_routes_flow_after_scan () =
  let loop, a, b = scanner_pair () in
  Scanner_bgp.originate a (net "128.16.0.0/16");
  (* Nothing happens until a's scanner fires... *)
  run_for loop 5.0;
  check Alcotest.int "not yet propagated" 0 (Scanner_bgp.route_count b);
  (* ...then both scanners have fired and the route is at b. *)
  run_for loop 60.0;
  check Alcotest.int "propagated after scans" 1 (Scanner_bgp.route_count b);
  check Alcotest.bool "scans happened" true (Scanner_bgp.scans_performed a >= 2)

let test_scanner_latency_sawtooth () =
  (* Measure propagation delay as a function of arrival time within the
     scan period: routes arriving just after a scan wait ~full
     interval. *)
  let loop, a, b = scanner_pair ~scan_interval:30.0 () in
  run_for loop 35.0; (* let initial scans settle *)
  let t_introduce = Eventloop.now loop in
  Scanner_bgp.originate a (net "128.99.0.0/16");
  Eventloop.run ~until:(fun () -> Scanner_bgp.route_count b >= 1) loop;
  let delay = Eventloop.now loop -. t_introduce in
  (* Must be visible only after a's next scan plus b's processing; with
     a 30 s scanner the delay is non-trivial. *)
  check Alcotest.bool
    (Printf.sprintf "scanner delay %.1fs is substantial" delay)
    true
    (delay > 5.0 && delay <= 61.0)

let test_event_driven_beats_scanner () =
  (* The Figure 13 contrast in miniature: same topology, same stimulus;
     the event-driven router delivers in well under a second of
     simulated time, the scanner-based one takes tens of seconds. *)
  let event_driven_delay () =
    let loop = Eventloop.create () in
    let netsim = Netsim.create loop in
    let mk as_ id =
      let finder = Finder.create () in
      Bgp_process.create ~nexthop_mode:`Assume_resolvable
        finder loop ~netsim ~local_as:as_ ~bgp_id:(addr id) ()
    in
    let a = mk 65001 "1.1.1.1" and b = mk 65002 "2.2.2.2" in
    Bgp_process.add_peer a
      (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
         ~local_addr:(addr "10.0.0.1") ~peer_as:65002);
    Bgp_process.add_peer b
      (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
         ~local_addr:(addr "10.0.0.2") ~peer_as:65001);
    Bgp_process.start a;
    Bgp_process.start b;
    run_for loop 35.0;
    let t0 = Eventloop.now loop in
    Bgp_process.originate a (net "128.99.0.0/16");
    Eventloop.run ~until:(fun () -> Bgp_process.route_count b >= 1) loop;
    Eventloop.now loop -. t0
  in
  let scanner_delay () =
    let loop, a, b = scanner_pair ~scan_interval:30.0 () in
    run_for loop 35.0;
    let t0 = Eventloop.now loop in
    Scanner_bgp.originate a (net "128.99.0.0/16");
    Eventloop.run ~until:(fun () -> Scanner_bgp.route_count b >= 1) loop;
    Eventloop.now loop -. t0
  in
  let ed = event_driven_delay () and sc = scanner_delay () in
  check Alcotest.bool
    (Printf.sprintf "event-driven %.3fs << scanner %.1fs" ed sc)
    true
    (ed < 1.0 && sc > 5.0 && sc /. ed > 10.0)

let test_withdrawal_via_scan () =
  let loop, a, b = scanner_pair () in
  Scanner_bgp.originate a (net "128.16.0.0/16");
  run_for loop 70.0;
  check Alcotest.int "propagated" 1 (Scanner_bgp.route_count b);
  (* Take the session down: b's adj-in flushes and its next scan drops
     the route. *)
  Scanner_bgp.shutdown a;
  run_for loop 70.0;
  check Alcotest.int "withdrawn after scan" 0 (Scanner_bgp.route_count b)

(* A mass withdrawal leaves as UPDATEs of at most 700 prefixes. Sent
   as one UPDATE, 1,200 withdrawn /24s do not encode, and c would keep
   every route after a goes away. *)
let test_mass_withdrawal () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let mk as_ id =
    Scanner_bgp.create loop netsim ~local_as:as_ ~bgp_id:(addr id) ()
  in
  let a = mk 65001 "1.1.1.1" and b = mk 65002 "2.2.2.2"
  and c = mk 65003 "3.3.3.3" in
  let peer x ~local ~remote ~remote_as =
    Scanner_bgp.add_peer x ~peer_addr:(addr remote) ~local_addr:(addr local)
      ~peer_as:remote_as ()
  in
  peer a ~local:"10.0.0.1" ~remote:"10.0.0.2" ~remote_as:65002;
  peer b ~local:"10.0.0.2" ~remote:"10.0.0.1" ~remote_as:65001;
  peer b ~local:"10.0.1.2" ~remote:"10.0.1.3" ~remote_as:65003;
  peer c ~local:"10.0.1.3" ~remote:"10.0.1.2" ~remote_as:65002;
  List.iter Scanner_bgp.start [ a; b; c ];
  for i = 0 to 1199 do
    Scanner_bgp.originate a
      (Ipv4net.make (Ipv4.of_int ((100 lsl 24) lor (i lsl 8))) 24)
  done;
  run_for loop 200.0;
  check Alcotest.int "c learned every route" 1200 (Scanner_bgp.route_count c);
  Scanner_bgp.shutdown a;
  run_for loop 200.0;
  check Alcotest.int "c withdrew every route" 0 (Scanner_bgp.route_count c)

let () =
  Alcotest.run "xorp_scanner"
    [
      ( "scanner",
        [
          Alcotest.test_case "establishment" `Quick test_establishment;
          Alcotest.test_case "routes flow after scan" `Quick
            test_routes_flow_after_scan;
          Alcotest.test_case "latency sawtooth" `Quick
            test_scanner_latency_sawtooth;
          Alcotest.test_case "event-driven beats scanner" `Quick
            test_event_driven_beats_scanner;
          Alcotest.test_case "withdrawal via scan" `Quick
            test_withdrawal_via_scan;
          Alcotest.test_case "mass withdrawal" `Quick test_mass_withdrawal;
        ] );
    ]
