(* End-to-end BGP tests: full processes exchanging real RFC 4271
   messages over the simulated network, with and without the RIB/FEA
   stack underneath. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* A standalone BGP router (no RIB): nexthops assumed resolvable. *)
let standalone_router ~loop ~netsim ~local_as ~bgp_id () =
  let finder = Finder.create () in
  Bgp_process.create ~nexthop_mode:`Assume_resolvable
    finder loop ~netsim ~local_as ~bgp_id ()

let run_for loop seconds =
  Eventloop.run_until_time loop (Eventloop.now loop +. seconds)

let peering ?import ?export ?damping ?(checking = true) a a_addr b b_addr
    ~as_a ~as_b =
  Bgp_process.add_peer a
    { (Bgp_process.default_peer_config ~peer_addr:(addr b_addr)
         ~local_addr:(addr a_addr) ~peer_as:as_b)
      with Bgp_process.import_policies = Option.value import ~default:[];
           checking_cache = checking };
  Bgp_process.add_peer b
    { (Bgp_process.default_peer_config ~peer_addr:(addr a_addr)
         ~local_addr:(addr b_addr) ~peer_as:as_a)
      with Bgp_process.export_policies = Option.value export ~default:[];
           damping; checking_cache = checking }

let two_routers ?import ?export ?damping () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let b = standalone_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") () in
  peering ?import ?export ?damping a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  (loop, a, b)

let assert_established what p peer =
  match Bgp_process.peer_state p (addr peer) with
  | Some Peer_fsm.Established -> ()
  | Some st ->
    Alcotest.failf "%s: peer %s in state %s" what peer
      (Peer_fsm.state_to_string st)
  | None -> Alcotest.failf "%s: peer %s unknown" what peer

let no_violations p =
  match Bgp_process.cache_violations p with
  | [] -> ()
  | v :: _ -> Alcotest.failf "consistency violation: %s" v

let test_session_establishment () =
  let _, a, b = two_routers () in
  assert_established "a" a "10.0.0.2";
  assert_established "b" b "10.0.0.1";
  check Alcotest.int "a count" 1 (Bgp_process.established_count a);
  check Alcotest.int "b count" 1 (Bgp_process.established_count b)

let test_route_propagation () =
  let loop, a, b = two_routers () in
  Bgp_process.originate a (net "128.16.0.0/16");
  Bgp_process.originate a (net "172.20.0.0/14");
  run_for loop 1.0;
  check Alcotest.int "b learned both" 2 (Bgp_process.route_count b);
  check Alcotest.int "b ribin holds them" 2
    (Bgp_process.ribin_count b (addr "10.0.0.1"));
  (* a's own table counts its local routes *)
  check Alcotest.int "a has its own" 2 (Bgp_process.route_count a);
  no_violations a;
  no_violations b

let test_withdrawal_propagation () =
  let loop, a, b = two_routers () in
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 1.0;
  check Alcotest.int "learned" 1 (Bgp_process.route_count b);
  Bgp_process.withdraw a (net "128.16.0.0/16");
  run_for loop 1.0;
  check Alcotest.int "withdrawn" 0 (Bgp_process.route_count b);
  no_violations b

let test_routes_learned_before_establishment () =
  (* Routes originated before the session comes up must be dumped to
     the peer on establishment (background winner dump). *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let b = standalone_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") () in
  for i = 0 to 299 do
    Bgp_process.originate a
      (Ipv4net.make (Ipv4.of_octets 130 (i / 200) (i mod 200) 0) 24)
  done;
  peering a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 5.0;
  check Alcotest.int "full dump received" 300 (Bgp_process.route_count b);
  no_violations a;
  no_violations b

let test_peering_flap_deletion_stage () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let b = standalone_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") () in
  (* Slow deletion so the stage is observable. *)
  Bgp_process.add_peer a
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
         ~local_addr:(addr "10.0.0.1") ~peer_as:65002)
      with Bgp_process.checking_cache = true };
  Bgp_process.add_peer b
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
         ~local_addr:(addr "10.0.0.2") ~peer_as:65001)
      with Bgp_process.deletion_slice = 10; checking_cache = true };
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  for i = 0 to 499 do
    Bgp_process.originate a (Ipv4net.make (Ipv4.of_octets 130 (i / 2) ((i mod 2) * 128) 0) 17)
  done;
  run_for loop 5.0;
  check Alcotest.int "b learned 500" 500 (Bgp_process.route_count b);
  (* Kill the session from a's side: b sees it drop and spawns a
     deletion stage; a redials and the session comes back. *)
  Bgp_process.remove_peer a (addr "10.0.0.2");
  (* Run just until the down event spawns the deletion stage, so we can
     observe it mid-flight (background slices drain fast in sim time). *)
  Eventloop.run
    ~until:(fun () -> Bgp_process.deletion_stages b (addr "10.0.0.1") = 1)
    loop;
  check Alcotest.bool "b session dropped" true
    (Bgp_process.peer_state b (addr "10.0.0.1") <> Some Peer_fsm.Established);
  check Alcotest.int "deletion stage spawned" 1
    (Bgp_process.deletion_stages b (addr "10.0.0.1"));
  check Alcotest.int "ribin instantly empty" 0
    (Bgp_process.ribin_count b (addr "10.0.0.1"));
  (* a reappears as a freshly configured peer before deletion ends. *)
  Bgp_process.add_peer a
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
         ~local_addr:(addr "10.0.0.1") ~peer_as:65002)
      with Bgp_process.checking_cache = true };
  for i = 0 to 499 do
    Bgp_process.originate a (Ipv4net.make (Ipv4.of_octets 130 (i / 2) ((i mod 2) * 128) 0) 17)
  done;
  run_for loop 30.0;
  check Alcotest.int "relearned through the flap" 500 (Bgp_process.route_count b);
  check Alcotest.int "deletion stages all unplumbed" 0
    (Bgp_process.deletion_stages b (addr "10.0.0.1"));
  no_violations b

let test_silent_partition_hold_timer_recovery () =
  (* Cut the wire without any close notification: only the hold timers
     can notice. Both sides must tear down, flush via a deletion stage,
     redial, and reconverge. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let b = standalone_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") () in
  let short cfg = { cfg with Bgp_process.hold_time = 9.0 } in
  Bgp_process.add_peer a
    (short
       (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
          ~local_addr:(addr "10.0.0.1") ~peer_as:65002));
  Bgp_process.add_peer b
    (short
       (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
          ~local_addr:(addr "10.0.0.2") ~peer_as:65001));
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  check Alcotest.int "converged" 1 (Bgp_process.route_count b);
  (* Silent cut. *)
  check Alcotest.bool "severed" true
    (Bgp_process.sever_session a (addr "10.0.0.2"));
  (* Within ~hold time both sides notice; b flushes. *)
  Eventloop.run
    ~until:(fun () ->
        Bgp_process.peer_state b (addr "10.0.0.1") <> Some Peer_fsm.Established)
    loop;
  check Alcotest.bool "detected within hold + slack" true
    (Eventloop.now loop < 25.0);
  (* And recovery: the dialer retries; everything comes back. *)
  Eventloop.run
    ~until:(fun () -> Bgp_process.route_count b = 1 && Eventloop.now loop > 60.0)
    loop;
  check Alcotest.int "reconverged after partition" 1 (Bgp_process.route_count b);
  check Alcotest.int "sessions re-established" 1
    (Bgp_process.established_count b);
  no_violations b

let test_three_router_transit () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let b = standalone_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") () in
  let c = standalone_router ~loop ~netsim ~local_as:65003 ~bgp_id:(addr "3.3.3.3") () in
  peering a "10.0.1.1" b "10.0.1.2" ~as_a:65001 ~as_b:65002;
  peering b "10.0.2.2" c "10.0.2.3" ~as_a:65002 ~as_b:65003;
  Bgp_process.start a;
  Bgp_process.start b;
  Bgp_process.start c;
  run_for loop 3.0;
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  check Alcotest.int "b learned" 1 (Bgp_process.route_count b);
  check Alcotest.int "c learned through transit" 1 (Bgp_process.route_count c);
  no_violations a;
  no_violations b;
  no_violations c

let test_import_policy_applied () =
  let reject_10 =
    Result.get_ok
      (Policy.compile
         "load network\npush.net 10.0.0.0/8\nwithin\njfalse keep\nreject\nlabel keep")
  in
  let loop, a, b = two_routers ~import:[] () in
  ignore a;
  ignore b;
  ignore loop;
  (* set the import policy on b's side dynamically *)
  let ok = Bgp_process.set_import_policies b (addr "10.0.0.1") [ reject_10 ] in
  check Alcotest.bool "policy installed" true ok;
  Bgp_process.originate a (net "10.5.0.0/16");
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  check Alcotest.int "one filtered, one learned" 1 (Bgp_process.route_count b)

let test_policy_change_refilters () =
  let loop, a, b = two_routers () in
  Bgp_process.originate a (net "10.5.0.0/16");
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  check Alcotest.int "both learned" 2 (Bgp_process.route_count b);
  let reject_10 =
    Result.get_ok
      (Policy.compile
         "load network\npush.net 10.0.0.0/8\nwithin\njfalse keep\nreject\nlabel keep")
  in
  ignore (Bgp_process.set_import_policies b (addr "10.0.0.1") [ reject_10 ]);
  run_for loop 2.0;
  check Alcotest.int "refilter withdrew 10/8 routes" 1
    (Bgp_process.route_count b);
  no_violations b

(* --- full stack: BGP + RIB + FEA on the receiving router --------------- *)

let full_stack_router ~loop ~netsim ~local_as ~bgp_id () =
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  let bgp =
    Bgp_process.create ~nexthop_mode:`Rib finder loop
      ~netsim ~local_as ~bgp_id ()
  in
  (finder, fea, rib, bgp)

let test_deletion_stage_readd_race_full_stack () =
  (* §5.1.2: after a peering loss the PeerIn's table is handed to a
     background deletion stage. If the peering comes back and the same
     prefixes are re-advertised while that stage is still draining, the
     stale withdrawals race the fresh adds all the way down the
     pipeline. None of the three tables — BGP winners, RIB, FEA FIB —
     may lose a fresh route to a stale delete. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let _, fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.add_peer a
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
         ~local_addr:(addr "10.0.0.1") ~peer_as:65002)
      with Bgp_process.checking_cache = true };
  (* Tiny deletion slice so the stage drains slowly enough to overlap
     the re-established session's route dump. *)
  Bgp_process.add_peer b
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
         ~local_addr:(addr "10.0.0.2") ~peer_as:65001)
      with Bgp_process.deletion_slice = 7; checking_cache = true };
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  let nets =
    List.init 300 (fun i ->
        Ipv4net.make (Ipv4.of_octets 130 (i / 250) (i mod 250) 0) 24)
  in
  List.iter (Bgp_process.originate a) nets;
  run_for loop 5.0;
  check Alcotest.int "all routes reached BGP" 300 (Bgp_process.route_count b);
  check Alcotest.bool "a sample reached the FIB" true
    (Fib.lookup (Fea.fib fea) (addr "130.0.17.1") <> None);
  (* Drop the peering and stop as soon as the stage is spawned. *)
  Bgp_process.remove_peer a (addr "10.0.0.2");
  Eventloop.run
    ~until:(fun () -> Bgp_process.deletion_stages b (addr "10.0.0.1") = 1)
    loop;
  check Alcotest.int "deletion stage mid-flight" 1
    (Bgp_process.deletion_stages b (addr "10.0.0.1"));
  (* The peer reappears and re-advertises the very same prefixes while
     the stage still holds their stale twins. *)
  Bgp_process.add_peer a
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
         ~local_addr:(addr "10.0.0.1") ~peer_as:65002)
      with Bgp_process.checking_cache = true };
  List.iter (Bgp_process.originate a) nets;
  run_for loop 40.0;
  check Alcotest.int "deletion stages drained" 0
    (Bgp_process.deletion_stages b (addr "10.0.0.1"));
  check Alcotest.int "bgp relearned all" 300 (Bgp_process.route_count b);
  no_violations b;
  (* Verify every prefix survived in the RIB and in the FEA FIB, with
     the fresh session's nexthop. *)
  List.iter
    (fun n ->
       (match Rib.lookup_best rib (Ipv4net.network n) with
        | Some r ->
          if r.Rib_route.protocol <> "ebgp" then
            Alcotest.failf "%s: RIB winner is %s" (Ipv4net.to_string n)
              r.Rib_route.protocol
        | None -> Alcotest.failf "%s: missing from RIB" (Ipv4net.to_string n));
       match Fib.get (Fea.fib fea) n with
       | Some e ->
         if Ipv4.to_string e.Fib.nexthop <> "10.0.0.1" then
           Alcotest.failf "%s: FIB nexthop %s" (Ipv4net.to_string n)
             (Ipv4.to_string e.Fib.nexthop)
       | None -> Alcotest.failf "%s: missing from FIB" (Ipv4net.to_string n))
    nets;
  (* And no stale extras: exactly the 300 BGP entries remain. *)
  let bgp_fib_entries =
    List.length
      (List.filter
         (fun e -> e.Fib.protocol = "ebgp")
         (Fib.entries (Fea.fib fea)))
  in
  check Alcotest.int "no stale FIB entries" 300 bgp_fib_entries

(* The eight profile points of §8.2, in the order a route passes them. *)
let journey_points =
  [ Bgp_process.pp_entering; Bgp_process.pp_queued_rib;
    Bgp_process.pp_sent_rib; Rib.pp_arrived; Rib.pp_queued_fea;
    Rib.pp_sent_fea; Fea.pp_arrived; Fea.pp_kernel ]

let test_full_stack_to_fib () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let _, fea, rib, b =
    Telemetry.with_namespace "b." (fun () ->
        full_stack_router ~loop ~netsim ~local_as:65002
          ~bgp_id:(addr "2.2.2.2") ())
  in
  peering a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  (* b can reach the peering LAN: the BGP nexthop (10.0.0.1) resolves
     via this connected route. *)
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  let b_points = List.map (fun p -> "b." ^ p) journey_points in
  List.iter Telemetry.Profile.enable b_points;
  (* The records since the last call, as (point, payload): b's alone,
     as a's BGP points (under the root namespace) stay off. *)
  let journey () =
    List.map
      (fun r -> (r.Telemetry.Profile.point, Telemetry.Profile.payload r))
      (Telemetry.Profile.drain ())
  in
  let pair = Alcotest.(list (pair string string)) in
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  check Alcotest.int "bgp winner" 1 (Bgp_process.route_count b);
  (* The route must have traveled BGP → RIB → FEA. *)
  (match Rib.lookup_best rib (addr "128.16.5.5") with
   | Some r ->
     check Alcotest.string "protocol" "ebgp" r.Rib_route.protocol;
     check Alcotest.string "nexthop is the peer" "10.0.0.1"
       (Ipv4.to_string r.nexthop)
   | None -> Alcotest.fail "not in RIB");
  (match Fib.lookup (Fea.fib fea) (addr "128.16.5.5") with
   | Some e -> check Alcotest.string "in FIB" "ebgp" e.Fib.protocol
   | None -> Alcotest.fail "not in FIB");
  check pair "announcement passes all eight points in order"
    (List.map (fun p -> (p, "add 128.16.0.0/16")) b_points)
    (journey ());
  (* Withdrawal cleans up all the way down. *)
  Bgp_process.withdraw a (net "128.16.0.0/16");
  run_for loop 2.0;
  check Alcotest.bool "gone from FIB" true
    (Fib.lookup (Fea.fib fea) (addr "128.16.5.5") = None);
  check pair "withdrawal passes all eight points in order"
    (List.map (fun p -> (p, "delete 128.16.0.0/16")) b_points)
    (journey ());
  (* One UPDATE carrying n prefixes: most of it crosses BGP->RIB and
     RIB->FEA as Route_pack runs, and every prefix still records once
     at every point. *)
  let n = 100 in
  let nets =
    List.init n (fun i -> Ipv4net.make (Ipv4.of_octets 131 0 i 0) 24)
  in
  Telemetry.reset ();
  List.iter (Bgp_process.originate a) nets;
  run_for loop 2.0;
  check Alcotest.int "all in FIB" (n + 1) (Fib.size (Fea.fib fea));
  let spans = Telemetry.Trace.spans () in
  let has name note =
    List.exists
      (fun (s : Telemetry.Trace.span) -> s.sp_name = name && s.sp_note = note)
      spans
  in
  check Alcotest.bool "one UPDATE carried them all" true
    (has "bgp.update" (Printf.sprintf "10.0.0.1 +%d -0" n));
  check Alcotest.bool "bulk BGP->RIB run" true
    (List.exists
       (fun (s : Telemetry.Trace.span) -> s.sp_name = "rib.route_add_bulk")
       spans);
  let records = journey () in
  List.iter
    (fun p ->
       check Alcotest.int (p ^ " records") n
         (List.length (List.filter (fun (q, _) -> q = p) records)))
    b_points;
  (* A change the RIB cannot see stops in BGP: a re-announces the
     prefix with a longer AS path over the same session, so with the
     same nexthop and metric, and b's to-RIB sink drops the
     replacement. a learns the longer path from a third router c and
     stops originating its own, so its winner changes in one step. *)
  let c = standalone_router ~loop ~netsim ~local_as:65003 ~bgp_id:(addr "3.3.3.3") () in
  peering a "10.0.1.1" c "10.0.1.3" ~as_a:65001 ~as_b:65003;
  Bgp_process.start c;
  run_for loop 2.0;
  let x = net "128.16.0.0/16" in
  Bgp_process.originate a x;
  run_for loop 2.0;
  Bgp_process.originate c x;
  run_for loop 2.0;
  let path_len () =
    Bgp_process.fold_winners b
      (fun r acc ->
         if Ipv4net.equal r.Bgp_types.net x then
           Some (Aspath.length r.Bgp_types.attrs.aspath)
         else acc)
      None
  in
  let fib_nexthop what =
    match Fib.get (Fea.fib fea) x with
    | Some e -> Ipv4.to_string e.Fib.nexthop
    | None -> Alcotest.failf "%s left the FIB without the route" what
  in
  check Alcotest.(option int) "b holds a's own announcement" (Some 1)
    (path_len ());
  ignore (journey ());
  Telemetry.reset ();
  Bgp_process.withdraw a x;
  run_for loop 2.0;
  check Alcotest.(option int) "b holds the longer path" (Some 2) (path_len ());
  let handled () =
    List.map
      (fun (s : Telemetry.Trace.span) -> s.sp_name)
      (Telemetry.Trace.spans ())
  in
  check Alcotest.(list string) "no RIB route or FEA span" []
    (List.filter
       (fun name ->
          String.starts_with ~prefix:"rib.route_" name
          || String.starts_with ~prefix:"fea." name)
       (handled ()));
  check Alcotest.string "FIB nexthop" "10.0.0.1"
    (fib_nexthop "the AS path change");
  check pair "the AS path change records only where it entered"
    [ ("b." ^ Bgp_process.pp_entering, "add 128.16.0.0/16") ]
    (journey ());
  (* One change, one message: b's winner moves to a fourth router d,
     with another nexthop, and b replaces its route with one packed
     run of one route into the RIB and one into the FEA. *)
  let d = standalone_router ~loop ~netsim ~local_as:65004 ~bgp_id:(addr "4.4.4.4") () in
  peering d "10.0.2.4" b "10.0.2.2" ~as_a:65004 ~as_b:65002;
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.2.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.start d;
  run_for loop 2.0;
  ignore (journey ());
  Telemetry.reset ();
  Bgp_process.originate d x;
  run_for loop 2.0;
  check Alcotest.(option int) "b holds d's path" (Some 1) (path_len ());
  let count name = List.length (List.filter (String.equal name) (handled ())) in
  List.iter
    (fun (name, n) -> check Alcotest.int (name ^ " spans") n (count name))
    [ ("rib.route_add", 0); ("rib.route_delete", 0);
      ("rib.route_add_bulk", 1); ("rib.route_delete_bulk", 0);
      ("fea.install_bulk", 1); ("fea.uninstall_bulk", 0) ];
  check Alcotest.string "FIB nexthop" "10.0.2.4"
    (fib_nexthop "the nexthop change");
  check pair "the replacement passes all eight points as one add"
    (List.map (fun p -> (p, "add 128.16.0.0/16")) b_points)
    (journey ());
  no_violations d;
  no_violations a;
  no_violations b;
  List.iter Telemetry.Profile.disable b_points

(* The lane crosses BGP->RIB in the call. A two-prefix flap queues
   urgent in b's RIB outbox and reaches b's RIB as one packed run that
   states urgent, and the RIB queues its FIB changes urgent. A
   100-prefix UPDATE is staged, and the 36 ops drained while 64 or more
   wait behind them are bulk: they queue bulk in the RIB outbox, cross
   as packed runs too, and land in the RIB's bulk lane. *)
let test_lane_crosses_in_the_call () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let _, fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  peering a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  Telemetry.set_enabled true;
  let read name =
    int_of_float (Telemetry.gauge_value (Telemetry.gauge name))
  in
  (* Announce [nets] from a, in one UPDATE, and run until b's FIB holds
     them, reading the peak lengths of b's RIB outbox lanes and of the
     RIB's FEA lanes between loop turns (a flush runs the turn after its
     changes were queued). *)
  let announce nets =
    Telemetry.reset ();
    List.iter (Bgp_process.originate a) nets;
    let peaks = Hashtbl.create 4 in
    let peak name = Option.value (Hashtbl.find_opt peaks name) ~default:0 in
    let deadline = Eventloop.now loop +. 5.0 in
    Eventloop.run loop ~until:(fun () ->
        List.iter
          (fun name -> Hashtbl.replace peaks name (max (peak name) (read name)))
          [ "bgp.rib_q.urgent"; "bgp.rib_q.bulk"; "rib.fea_q.urgent";
            "rib.fea_q.bulk" ];
        Eventloop.now loop > deadline
        || List.for_all (fun n -> Fib.get (Fea.fib fea) n <> None) nets);
    let spans = Telemetry.Trace.spans () in
    let notes name =
      List.filter_map
        (fun (s : Telemetry.Trace.span) ->
           if s.sp_name = name then Some s.sp_note else None)
        spans
    in
    check Alcotest.(list string) "one UPDATE"
      [ Printf.sprintf "10.0.0.1 +%d -0" (List.length nets) ]
      (notes "bgp.update");
    check Alcotest.(list string) "no per-route RIB call" [] (notes "rib.route_add");
    check Alcotest.bool "all in FIB" true
      (List.for_all (fun n -> Fib.get (Fea.fib fea) n <> None) nets);
    ( notes "rib.route_add_bulk",
      (peak "bgp.rib_q.urgent", peak "bgp.rib_q.bulk"),
      (peak "rib.fea_q.urgent", peak "rib.fea_q.bulk") )
  in
  let runs, rib_q, fea_q =
    announce [ net "128.16.0.0/16"; net "128.17.0.0/16" ]
  in
  check Alcotest.(pair int int) "the flap queues urgent for the RIB" (2, 0)
    rib_q;
  check Alcotest.(list string) "the flap crosses as one packed run"
    [ "2 routes" ] runs;
  check Alcotest.(pair int int) "its FIB changes queue urgent" (2, 0) fea_q;
  let nets =
    List.init 100 (fun i -> Ipv4net.make (Ipv4.of_octets 131 0 i 0) 24)
  in
  let runs, (_, rib_q_bulk), (_, bulk) = announce nets in
  check Alcotest.bool "the load queues bulk for the RIB" true (rib_q_bulk > 0);
  check Alcotest.int "the load crosses in packed runs" 100
    (List.fold_left (fun n note -> n + Scanf.sscanf note "%d routes" Fun.id)
       0 runs);
  check Alcotest.int "its bulk part lands in the bulk lane" (100 - 64) bulk;
  no_violations a;
  no_violations b

(* Every UPDATE re-arms the receiver's 90 s hold timer, so a cancelled
   timer left queued until its deadline grows the heap reachable from
   the event loop by ~18 words per route change. After warm-up, 10,000
   more changes through BGP, RIB and FEA must leave it where it was. *)
let test_churn_heap_flat () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let _, fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  peering ~checking:false a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  let pool =
    Array.init 64 (fun k -> Ipv4net.make (Ipv4.of_octets 130 0 k 0) 24)
  in
  let fib = Fea.fib fea in
  (* Change k announces pool entry k/2 when k is even and withdraws it
     when k is odd, then waits until the FIB agrees. *)
  let change k =
    let n = pool.(k / 2 mod 64) and announce = k mod 2 = 0 in
    if announce then Bgp_process.originate a n else Bgp_process.withdraw a n;
    Eventloop.run ~until:(fun () -> Option.is_some (Fib.get fib n) = announce)
      loop;
    Eventloop.run_until_idle loop
  in
  let words () = Obj.reachable_words (Obj.repr loop) in
  for k = 0 to 1_999 do change k done;
  let warm = words () in
  for k = 2_000 to 11_999 do change k done;
  let after = words () in
  check Alcotest.int "FIB holds only the connected route" 1 (Fib.size fib);
  if after - warm > 2_000 then
    Alcotest.failf
      "loop heap grew %d words over 10,000 route changes (%d -> %d)"
      (after - warm) warm after

let test_full_stack_nexthop_gating () =
  (* Without a route to the BGP nexthop, the decision process must
     ignore the route; adding an IGP route to the nexthop range
     activates it (via RIB interest registration + invalidation). *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let _, fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  ignore fea;
  peering a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  (* Session is up but the nexthop 10.0.0.1 is unroutable on b. *)
  assert_established "b" b "10.0.0.1";
  check Alcotest.int "route not usable" 0 (Bgp_process.route_count b);
  (* Now teach b how to reach the peering LAN. *)
  Result.get_ok
    (Rib.add_route rib ~protocol:"static" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  run_for loop 2.0;
  check Alcotest.int "route became usable" 1 (Bgp_process.route_count b);
  (* And remove it again: the invalidation must deactivate the route. *)
  Result.get_ok (Rib.delete_route rib ~protocol:"static" ~net:(net "10.0.0.0/24"));
  run_for loop 2.0;
  check Alcotest.int "route unusable again" 0 (Bgp_process.route_count b)

let test_redistribution_into_bgp () =
  (* A static route in b's RIB is redistributed into b's BGP and
     advertised to peer a with INCOMPLETE origin — the reverse of the
     usual BGP->RIB flow, closing §3's redistribution loop. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let _, _fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  peering a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  Result.get_ok
    (Rib.add_route rib ~protocol:"static" ~net:(net "203.0.113.0/24")
       ~nexthop:(addr "10.0.0.254") ());
  run_for loop 1.0;
  (* Only static routes cross into BGP. *)
  Bgp_process.subscribe_rib_redistribution b
    ~policy:"load protocol\npush.str static\neq\njfalse no\naccept\nlabel no\nreject";
  run_for loop 3.0;
  check Alcotest.int "a learned the redistributed route" 1
    (Bgp_process.route_count a);
  (* Withdrawal flows too. *)
  Result.get_ok
    (Rib.delete_route rib ~protocol:"static" ~net:(net "203.0.113.0/24"));
  run_for loop 3.0;
  check Alcotest.int "withdrawn at a" 0 (Bgp_process.route_count a)

let test_aggregation_end_to_end () =
  (* b aggregates 100.64.0.0/10 toward... rather: a aggregates what it
     sends to b: many /24s inside 100.64/10 leave a as one aggregate. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let b = standalone_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") () in
  Bgp_process.add_peer a
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
         ~local_addr:(addr "10.0.0.1") ~peer_as:65002)
      with Bgp_process.aggregates =
             [ { Bgp_aggregation.agg_net = net "100.64.0.0/10";
                 suppress_specifics = true } ] };
  Bgp_process.add_peer b
    (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
       ~local_addr:(addr "10.0.0.2") ~peer_as:65001);
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  for i = 0 to 19 do
    Bgp_process.originate a (Ipv4net.make (Ipv4.of_octets 100 64 i 0) 24)
  done;
  Bgp_process.originate a (net "172.16.0.0/16");
  run_for loop 2.0;
  (* a holds 21 routes; b sees the aggregate plus the outsider. *)
  check Alcotest.int "a's own table" 21 (Bgp_process.route_count a);
  check Alcotest.int "b sees 2" 2 (Bgp_process.route_count b);
  check Alcotest.int "b's ribin: aggregate + outsider" 2
    (Bgp_process.ribin_count b (addr "10.0.0.1"));
  (* Withdraw all components: the aggregate goes too. *)
  for i = 0 to 19 do
    Bgp_process.withdraw a (Ipv4net.make (Ipv4.of_octets 100 64 i 0) 24)
  done;
  run_for loop 2.0;
  check Alcotest.int "only the outsider left" 1 (Bgp_process.route_count b)

let test_ibgp_peer_removal_cleans_rib () =
  (* Regression: after permanently removing an IBGP peer, its routes
     must disappear from the RIB — the in-flight withdrawals must be
     attributed to the "ibgp" origin even though the peer is gone. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  (* a is an IBGP neighbour of b (same AS). *)
  let a = standalone_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "1.1.1.1") () in
  let _, _fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  peering a "10.0.0.1" b "10.0.0.2" ~as_a:65002 ~as_b:65002;
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  (* IBGP keeps the originator's nexthop (its bgp-id); resolve it via a
     static "IGP" route, as hot-potato routing requires. *)
  Result.get_ok
    (Rib.add_route rib ~protocol:"static" ~net:(net "1.1.1.0/24")
       ~nexthop:(addr "10.0.0.1") ());
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  (match Rib.lookup_best rib (addr "128.16.1.1") with
   | Some r -> check Alcotest.string "in RIB as ibgp" "ibgp" r.Rib_route.protocol
   | None -> Alcotest.fail "route not in RIB");
  Bgp_process.remove_peer b (addr "10.0.0.1");
  run_for loop 10.0;
  check Alcotest.bool "withdrawn from the RIB" true
    (Rib.lookup_best rib (addr "128.16.1.1") = None)

let test_damping_full_path () =
  let params =
    { Bgp_damping.default_params with
      Bgp_damping.suppress_threshold = 1500.0 }
  in
  let loop, a, b = two_routers ~damping:params () in
  (* Flap the prefix from a twice: b's damping stage suppresses it. *)
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 3.0;
  check Alcotest.int "learned" 1 (Bgp_process.route_count b);
  Bgp_process.withdraw a (net "128.16.0.0/16");
  run_for loop 3.0;
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 3.0;
  Bgp_process.withdraw a (net "128.16.0.0/16");
  run_for loop 3.0;
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 3.0;
  (* Two withdrawals -> penalty 2000 > 1500: suppressed. *)
  check Alcotest.int "suppressed at b" 0 (Bgp_process.route_count b);
  (* After enough decay it reappears without any BGP traffic. *)
  run_for loop 3600.0;
  check Alcotest.int "reused after decay" 1 (Bgp_process.route_count b)

(* --- IBGP semantics -------------------------------------------------- *)

let test_ibgp_no_reflection () =
  (* a, b, c in AS 65001 (full mesh NOT configured: a-b and b-c only);
     d in AS 65002 peered with b. A route learned by b from IBGP peer a
     must reach EBGP peer d but must NOT be re-advertised to IBGP peer
     c (we are not a route reflector). *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let mk as_ id = standalone_router ~loop ~netsim ~local_as:as_ ~bgp_id:(addr id) () in
  let a = mk 65001 "1.1.1.1" in
  let b = mk 65001 "2.2.2.2" in
  let c = mk 65001 "3.3.3.3" in
  let d = mk 65002 "4.4.4.4" in
  peering a "10.0.1.1" b "10.0.1.2" ~as_a:65001 ~as_b:65001;
  peering b "10.0.2.2" c "10.0.2.3" ~as_a:65001 ~as_b:65001;
  peering b "10.0.3.2" d "10.0.3.4" ~as_a:65001 ~as_b:65002;
  List.iter Bgp_process.start [ a; b; c; d ];
  run_for loop 3.0;
  check Alcotest.int "b has 3 sessions" 3 (Bgp_process.established_count b);
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 3.0;
  check Alcotest.int "b learned over ibgp" 1 (Bgp_process.route_count b);
  check Alcotest.int "d learned over ebgp" 1 (Bgp_process.route_count d);
  check Alcotest.int "c did NOT (no reflection)" 0 (Bgp_process.route_count c);
  no_violations b

let test_ibgp_preserves_localpref () =
  (* An import policy on b sets localpref 250; when b re-advertises to
     IBGP peer... b is the only hop: check the winner's attrs at b. *)
  let loop, a, b = two_routers () in
  let set_lp =
    Result.get_ok (Policy.compile "push.u32 250\nstore localpref\naccept")
  in
  ignore (Bgp_process.set_import_policies b (addr "10.0.0.1") [ set_lp ]);
  Bgp_process.originate a (net "128.16.0.0/16");
  run_for loop 2.0;
  check Alcotest.int "learned" 1 (Bgp_process.route_count b);
  no_violations b

let test_bgp_xrl_interface () =
  let loop, a, b = two_routers () in
  ignore b;
  (* Drive a's BGP through its own XRL interface, as the rtrmgr or a
     script would. *)
  let finder_caller = Bgp_process.xrl_router a in
  let call method_name args =
    Xrl_router.call_blocking finder_caller
      (Xrl.make ~target:(Bgp_process.instance_name a) ~interface:"bgp"
         ~method_name args)
  in
  let err, _ =
    call "originate_route" [ Xrl_atom.ipv4net "net" (net "203.0.113.0/24") ]
  in
  check Alcotest.bool "originate ok" true (Xrl_error.is_ok err);
  run_for loop 2.0;
  check Alcotest.int "b learned it" 1 (Bgp_process.route_count b);
  let err, args = call "get_route_count" [] in
  check Alcotest.bool "count ok" true (Xrl_error.is_ok err);
  check Alcotest.int "count" 1 (Xrl_atom.get_u32 args "count");
  let err, args =
    call "get_peer_state" [ Xrl_atom.ipv4 "peer" (addr "10.0.0.2") ]
  in
  check Alcotest.bool "state ok" true (Xrl_error.is_ok err);
  check Alcotest.string "established" "Established"
    (Xrl_atom.get_txt args "state");
  let err, _ =
    call "withdraw_route" [ Xrl_atom.ipv4net "net" (net "203.0.113.0/24") ]
  in
  check Alcotest.bool "withdraw ok" true (Xrl_error.is_ok err);
  run_for loop 2.0;
  check Alcotest.int "withdrawn at b" 0 (Bgp_process.route_count b)

(* --- RIB rebirth resync ---------------------------------------------- *)

let test_rib_rebirth_resync_full_stack () =
  (* The symmetric direction of the RIB's FIB-replay-to-a-reborn-FEA:
     when the RIB itself dies and restarts, BGP must replay its
     post-decision winners into the empty origin tables. 150 routes so
     the replay burst spans more than one bulk flush slice (128), and a
     live withdrawal issued during the replay must land after its
     prefix's replay add (§5.1.2 guard) — the prefix must end up
     absent, not resurrected. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a = standalone_router ~loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
  let finder, fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  peering a "10.0.0.1" b "10.0.0.2" ~as_a:65001 ~as_b:65002;
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.start a;
  Bgp_process.start b;
  run_for loop 2.0;
  let nets =
    List.init 150 (fun i ->
        Ipv4net.make (Ipv4.of_octets 130 (i / 100) (i mod 100) 0) 24)
  in
  List.iter (Bgp_process.originate a) nets;
  run_for loop 5.0;
  check Alcotest.int "all at b" 150 (Bgp_process.route_count b);
  check Alcotest.int "all in RIB" 150 (Rib.origin_route_count rib "ebgp");
  (* Kill the RIB: Death fires, BGP holds its outbound queue. *)
  Rib.shutdown rib;
  run_for loop 1.0;
  check Alcotest.int "bgp still holds its winners" 150
    (Bgp_process.route_count b);
  (* Rebirth: the new instance's origin tables are empty. Re-add the
     connected route (the rtrmgr's job in a real boot), then race a
     live withdrawal against the replay burst. *)
  let rib' = Rib.create finder loop () in
  Result.get_ok
    (Rib.add_route rib' ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Bgp_process.withdraw a (List.hd nets);
  run_for loop 10.0;
  check Alcotest.int "bgp converged to 149" 149 (Bgp_process.route_count b);
  check Alcotest.int "reborn RIB origin repopulated" 149
    (Rib.origin_route_count rib' "ebgp");
  check Alcotest.bool "withdrawn prefix stayed dead" true
    (Rib.lookup_best rib' (addr "130.0.0.1") = None);
  (match Rib.lookup_best rib' (addr "130.0.37.1") with
   | Some r -> check Alcotest.string "survivor is ebgp" "ebgp" r.Rib_route.protocol
   | None -> Alcotest.fail "replayed route missing from reborn RIB");
  (* And the route made it back down to the FIB. *)
  check Alcotest.bool "replayed into the FIB" true
    (Fib.lookup (Fea.fib fea) (addr "130.0.37.1") <> None)

let test_rib_call_in_birth_gap_retries () =
  (* Regression for the Finder-birth-gap race class (found for
     FEA-bound calls in the sim harness): a just-registered component
     is resolvable one event-loop turn before its handlers exist, so a
     BGP->RIB call landing in that window gets [No_such_method]. The
     bounded-retry path must absorb it. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let finder = Finder.create () in
  (* A RIB impostor: registered (resolvable) but with no methods —
     exactly the birth-gap state. Created before BGP so the watcher
     sees a live RIB from the start and no rebirth resync fires; the
     only send under test is the direct subscription below. *)
  let rib_shell = Xrl_router.create finder loop ~class_name:"rib" () in
  let b =
    Bgp_process.create ~nexthop_mode:`Assume_resolvable
      finder loop ~netsim ~local_as:65001 ~bgp_id:(addr "1.1.1.1") ()
  in
  let got = ref 0 in
  Bgp_process.subscribe_rib_redistribution b ~policy:"accept";
  (* First attempt fails with No_such_method; the handler appears
     inside the retry window (default backoff starts at 50 ms). *)
  ignore
    (Eventloop.after loop 0.2 (fun () ->
         Xrl_router.add_handler rib_shell ~interface:"rib"
           ~method_name:"redist_subscribe" (fun _args reply ->
             incr got;
             reply Xrl_error.Ok_xrl [])));
  run_for loop 5.0;
  check Alcotest.int "subscription retried into the new handler" 1 !got

(* One change, one message, under random streams. Three raw BGP
   speakers announce, re-announce (with a new AS path length) and
   withdraw prefixes of a small pool at a full-stack router on one
   loop. At quiescence its FIB holds the model's best routes, the
   checking cache on each export branch saw a consistent stream, and
   neither the RIB nor the FEA handled more route XRLs than the model's
   RIB-visible winner changes: a best route that appears, disappears
   or moves to another speaker, and with it to another nexthop. A
   replacement no longer crosses either boundary as a delete and an
   add, and a re-announcement that changes only the AS path length of
   the best route crosses neither. A speaker's changes may come in
   bursts, which the queues coalesce; the loop settles before another
   speaker sends, so the router meets the changes in the model's order
   and makes exactly the model's winner changes. *)
type feed_op = Feed_ann of int * int * int | Feed_wdr of int * int | Feed_settle

let gen_feed_ops =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (frequency
         [ ( 6,
             map3
               (fun s p l -> Feed_ann (s, p, l))
               (int_range 0 2) (int_range 0 3) (int_range 1 3) );
           (3, map2 (fun s p -> Feed_wdr (s, p)) (int_range 0 2) (int_range 0 3));
           (1, return Feed_settle) ]))

let arb_feed_ops =
  QCheck.make gen_feed_ops ~shrink:QCheck.Shrink.list
    ~print:(fun ops ->
        String.concat " "
          (List.map
             (function
               | Feed_ann (s, p, l) -> Printf.sprintf "+%d.%d/%d" s p l
               | Feed_wdr (s, p) -> Printf.sprintf "-%d.%d" s p
               | Feed_settle -> "|")
             ops))

let feed_speakers = [| ("10.0.0.1", 65001); ("10.0.0.3", 65003); ("10.0.0.4", 65004) |]
let feed_nets = Array.init 4 (fun i -> Ipv4net.make (Ipv4.of_octets 140 i 0 0) 16)

(* A speaker that dials the router under test and sends UPDATEs; what
   it receives it ignores. *)
let feed_speaker ~loop ~netsim (a, asn) =
  let fsm =
    Peer_fsm.create loop
      { Peer_fsm.local_as = asn; bgp_id = addr a; peer_as = 65002;
        hold_time = 300.0 }
      { Peer_fsm.on_established = ignore; on_update = ignore; on_down = ignore }
  in
  Peer_fsm.start_active fsm;
  Netsim.Stream.connect netsim ~src:(addr a) ~dst:(addr "10.0.0.2") ~port:179
    (function
      | None -> Alcotest.fail "speaker could not connect"
      | Some ep -> Peer_fsm.attach_stream fsm ep);
  fsm

let one_change_one_message ops =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let _, fea, rib, b =
    full_stack_router ~loop ~netsim ~local_as:65002 ~bgp_id:(addr "2.2.2.2") ()
  in
  Result.get_ok
    (Rib.add_route rib ~protocol:"connected" ~net:(net "10.0.0.0/24")
       ~nexthop:Ipv4.zero ());
  Array.iter
    (fun (a, asn) ->
       Bgp_process.add_peer b
         { (Bgp_process.default_peer_config ~peer_addr:(addr a)
              ~local_addr:(addr "10.0.0.2") ~peer_as:asn)
           with Bgp_process.passive = Some true; checking_cache = true })
    feed_speakers;
  Bgp_process.start b;
  let speakers = Array.map (feed_speaker ~loop ~netsim) feed_speakers in
  run_for loop 2.0;
  if Bgp_process.established_count b <> 3 then
    Alcotest.fail "speakers did not establish";
  Telemetry.reset ();
  (* The model: each speaker's AS path length per prefix. The best
     route has the shortest AS path, then the lowest peer address (the
     BGP id the router assumes for a speaker). *)
  let held = Hashtbl.create 16 in
  let best p =
    Array.to_list (Array.mapi (fun s (a, _) -> (s, a)) feed_speakers)
    |> List.filter_map (fun (s, a) ->
        Option.map (fun len -> (len, s, a)) (Hashtbl.find_opt held (s, p)))
    |> List.sort compare
    |> function [] -> None | (len, s, _) :: _ -> Some (len, s)
  in
  let rib_changes = ref 0 in
  let last_speaker = ref (-1) in
  let speaker p = Option.map snd (best p) in
  let change s p f =
    if s <> !last_speaker then run_for loop 1.0;
    last_speaker := s;
    let before = speaker p in
    f ();
    if speaker p <> before then incr rib_changes
  in
  List.iter
    (function
      | Feed_settle -> run_for loop 1.0
      | Feed_wdr (s, p) ->
        change s p @@ fun () ->
        Hashtbl.remove held (s, p);
        ignore
          (Peer_fsm.send_update speakers.(s)
             (Bgp_packet.Update
                { withdrawn = [ feed_nets.(p) ]; attrs = None; nlri = [] }))
      | Feed_ann (s, p, len) ->
        change s p @@ fun () ->
        let a, asn = feed_speakers.(s) in
        Hashtbl.replace held (s, p) len;
        let attrs =
          { (Bgp_types.default_attrs ~nexthop:(addr a)) with
            Bgp_types.aspath =
              [ Aspath.Seq (List.init len (fun i -> asn + (100 * i))) ] }
        in
        ignore
          (Peer_fsm.send_update speakers.(s)
             (Bgp_packet.Update
                { withdrawn = []; attrs = Some attrs; nlri = [ feed_nets.(p) ] })))
    ops;
  run_for loop 10.0;
  let best p = Option.map (fun (_, s) -> fst feed_speakers.(s)) (best p) in
  Array.iteri
    (fun p n ->
       let got =
         Option.map (fun e -> Ipv4.to_string e.Fib.nexthop)
           (Fib.get (Fea.fib fea) n)
       in
       if got <> best p then
         QCheck.Test.fail_reportf "%s: FIB says %s, model %s"
           (Ipv4net.to_string n)
           (Option.value got ~default:"nothing")
           (Option.value (best p) ~default:"nothing"))
    feed_nets;
  (match Bgp_process.cache_violations b with
   | [] -> ()
   | v :: _ -> QCheck.Test.fail_reportf "cache violation: %s" v);
  let rib_changes = !rib_changes in
  let spans = Telemetry.Trace.spans () in
  let count names =
    List.length
      (List.filter
         (fun (s : Telemetry.Trace.span) -> List.mem s.sp_name names)
         spans)
  in
  let rib_xrls =
    count [ "rib.route_add"; "rib.route_delete"; "rib.route_add_bulk";
            "rib.route_delete_bulk" ]
  and fea_xrls =
    count [ "fea.install"; "fea.uninstall"; "fea.install_bulk";
            "fea.uninstall_bulk" ]
  in
  if rib_xrls > rib_changes || fea_xrls > rib_changes then
    QCheck.Test.fail_reportf
      "%d RIB and %d FEA route XRLs for %d RIB-visible winner changes"
      rib_xrls fea_xrls rib_changes;
  Bgp_process.shutdown b;
  true

let prop_one_change_one_message =
  QCheck.Test.make ~name:"one change, one message: FIB, caches, XRL count"
    ~count:60 arb_feed_ops one_change_one_message

let () =
  Alcotest.run "xorp_bgp_process"
    [
      ( "sessions",
        [
          Alcotest.test_case "establishment" `Quick test_session_establishment;
          Alcotest.test_case "flap spawns deletion stage" `Quick
            test_peering_flap_deletion_stage;
          Alcotest.test_case "deletion stage vs re-adds, down to the FIB"
            `Quick test_deletion_stage_readd_race_full_stack;
          Alcotest.test_case "silent partition + hold timer" `Quick
            test_silent_partition_hold_timer_recovery;
        ] );
      ( "routes",
        [
          Alcotest.test_case "propagation" `Quick test_route_propagation;
          Alcotest.test_case "withdrawal" `Quick test_withdrawal_propagation;
          Alcotest.test_case "pre-established dump" `Quick
            test_routes_learned_before_establishment;
          Alcotest.test_case "three-router transit" `Quick
            test_three_router_transit;
        ] );
      ( "policy",
        [
          Alcotest.test_case "import filter" `Quick test_import_policy_applied;
          Alcotest.test_case "policy change refilters" `Quick
            test_policy_change_refilters;
        ] );
      ( "ibgp",
        [
          Alcotest.test_case "no ibgp reflection" `Quick test_ibgp_no_reflection;
          Alcotest.test_case "localpref via policy" `Quick
            test_ibgp_preserves_localpref;
          Alcotest.test_case "bgp/1.0 xrl interface" `Quick
            test_bgp_xrl_interface;
        ] );
      ( "full_stack",
        [
          Alcotest.test_case "BGP to FIB" `Quick test_full_stack_to_fib;
          Alcotest.test_case "the lane crosses in the call" `Quick
            test_lane_crosses_in_the_call;
          Alcotest.test_case "churn leaves the loop heap flat" `Quick
            test_churn_heap_flat;
          Alcotest.test_case "nexthop gating" `Quick
            test_full_stack_nexthop_gating;
          Alcotest.test_case "damping end to end" `Quick test_damping_full_path;
          Alcotest.test_case "redistribution into BGP" `Quick
            test_redistribution_into_bgp;
          Alcotest.test_case "aggregation end to end" `Quick
            test_aggregation_end_to_end;
          Alcotest.test_case "ibgp peer removal cleans RIB" `Quick
            test_ibgp_peer_removal_cleans_rib;
          Alcotest.test_case "RIB rebirth: winners replayed, live \
                              withdrawal not overtaken" `Quick
            test_rib_rebirth_resync_full_stack;
          Alcotest.test_case "RIB call in the birth gap is retried" `Quick
            test_rib_call_in_birth_gap_retries;
          QCheck_alcotest.to_alcotest prop_one_change_one_message;
        ] );
    ]
