(* RIP tests: packet codec, then full-stack routers (RIP + RIB + FEA
   per router) exchanging RIPv2 datagrams through the FEA's UDP relay
   over the simulated network. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* --- codec ----------------------------------------------------------- *)

let test_packet_roundtrip () =
  let pkt =
    { Rip_packet.command = Rip_packet.Response;
      entries =
        [ { Rip_packet.net = net "10.0.0.0/8"; nexthop = addr "10.0.0.9";
            metric = 3; tag = 77 };
          { Rip_packet.net = net "128.16.64.0/18"; nexthop = Ipv4.zero;
            metric = 16; tag = 0 } ] }
  in
  match Rip_packet.decode (Rip_packet.encode pkt) with
  | Ok back ->
    check Alcotest.int "entries" 2 (List.length back.Rip_packet.entries);
    let e1 = List.hd back.Rip_packet.entries in
    check Alcotest.string "net" "10.0.0.0/8" (Ipv4net.to_string e1.Rip_packet.net);
    check Alcotest.int "metric" 3 e1.Rip_packet.metric;
    check Alcotest.int "tag" 77 e1.Rip_packet.tag;
    check Alcotest.string "nexthop" "10.0.0.9"
      (Ipv4.to_string e1.Rip_packet.nexthop)
  | Error e -> Alcotest.fail e

let test_whole_table_request () =
  let pkt = Rip_packet.whole_table_request in
  check Alcotest.bool "recognized" true (Rip_packet.is_whole_table_request pkt);
  match Rip_packet.decode (Rip_packet.encode pkt) with
  | Ok back ->
    check Alcotest.bool "survives the wire" true
      (Rip_packet.is_whole_table_request back)
  | Error e -> Alcotest.fail e

let test_packet_rejects () =
  List.iter
    (fun (s, what) ->
       match Rip_packet.decode s with
       | Ok _ -> Alcotest.failf "accepted %s" what
       | Error _ -> ())
    [ ("", "empty");
      ("\x07\x02\x00\x00", "bad command");
      ("\x02\x01\x00\x00", "RIPv1");
      ( "\x02\x02\x00\x00\x00\x02\x00\x00\x0a\x00\x00\x00\xff\x00\xff\x00\x0a\x00\x00\x09\x00\x00\x00\x03",
        "non-contiguous mask" );
      ( "\x02\x02\x00\x00\x00\x02\x00\x00\x0a\x00\x00\x00\xff\x00\x00\x00\x0a\x00\x00\x09\x00\x00\x00\x63",
        "metric 99" ) ]

let test_split () =
  let entries =
    List.init 60 (fun i ->
        { Rip_packet.net = Ipv4net.make (Ipv4.of_octets 10 (i / 200) (i mod 200) 0) 24;
          nexthop = Ipv4.zero; metric = 1; tag = 0 })
  in
  let packets = Rip_packet.split Rip_packet.Response entries in
  check (Alcotest.list Alcotest.int) "25+25+10"
    [ 25; 25; 10 ]
    (List.map (fun p -> List.length p.Rip_packet.entries) packets)

(* --- full-stack routers ------------------------------------------------ *)

type router = {
  finder : Finder.t;
  fea : Fea.t;
  rib : Rib.t;
  rip : Rip_process.t;
}

let make_router ~loop ~netsim ~ifaddr ~neighbors ?(rip_cfg = fun c -> c) () =
  let finder = Finder.create () in
  let fea =
    Fea.create ~interfaces:[ ("eth0", addr ifaddr) ] ~netsim finder loop ()
  in
  let rib = Rib.create finder loop () in
  let cfg =
    rip_cfg
      (Rip_process.default_config
         ~ifaces:
           [ { Rip_process.if_addr = addr ifaddr;
               if_neighbors = List.map addr neighbors } ])
  in
  let rip = Rip_process.create finder loop cfg in
  { finder; fea; rib; rip }

let run_for loop seconds =
  Eventloop.run_until_time loop (Eventloop.now loop +. seconds)

let pair ?(rip_cfg = fun c -> c) () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let r1 =
    make_router ~loop ~netsim ~ifaddr:"10.0.0.1" ~neighbors:[ "10.0.0.2" ]
      ~rip_cfg ()
  in
  let r2 =
    make_router ~loop ~netsim ~ifaddr:"10.0.0.2" ~neighbors:[ "10.0.0.1" ]
      ~rip_cfg ()
  in
  Rip_process.start r1.rip;
  Rip_process.start r2.rip;
  run_for loop 1.0;
  (loop, r1, r2)

let test_exchange () =
  let loop, r1, r2 = pair () in
  Rip_process.inject r1.rip ~net:(net "172.16.0.0/12") ();
  Rip_process.inject r1.rip ~net:(net "192.168.0.0/16") ~metric:3 ();
  run_for loop 5.0;
  check Alcotest.int "r2 learned both" 2 (Rip_process.route_count r2.rip);
  (match Rip_process.lookup r2.rip (net "172.16.0.0/12") with
   | Some (metric, nexthop) ->
     check Alcotest.int "metric incremented" 2 metric;
     check Alcotest.string "nexthop is r1" "10.0.0.1" (Ipv4.to_string nexthop)
   | None -> Alcotest.fail "route missing");
  (match Rip_process.lookup r2.rip (net "192.168.0.0/16") with
   | Some (metric, _) -> check Alcotest.int "3+1" 4 metric
   | None -> Alcotest.fail "route missing");
  (* learned routes land in r2's RIB and FIB *)
  (match Rib.lookup_best r2.rib (addr "172.16.5.5") with
   | Some r -> check Alcotest.string "in RIB as rip" "rip" r.Rib_route.protocol
   | None -> Alcotest.fail "not in RIB");
  match Fib.lookup (Fea.fib r2.fea) (addr "172.16.5.5") with
  | Some e -> check Alcotest.string "in FIB" "rip" e.Fib.protocol
  | None -> Alcotest.fail "not in FIB"

let test_triggered_update_is_fast () =
  let loop, r1, r2 = pair () in
  (* Let the initial exchange settle, then inject mid-cycle: the
     triggered update must deliver it in ~1 s, far below the 30 s
     periodic interval. *)
  run_for loop 10.0;
  let t0 = Eventloop.now loop in
  Rip_process.inject r1.rip ~net:(net "172.16.0.0/12") ();
  Eventloop.run
    ~until:(fun () -> Rip_process.route_count r2.rip >= 1)
    loop;
  let dt = Eventloop.now loop -. t0 in
  check Alcotest.bool
    (Printf.sprintf "arrived in %.2fs (triggered, not periodic)" dt)
    true (dt < 5.0)

let test_withdrawal_poisons () =
  let loop, r1, r2 = pair () in
  Rip_process.inject r1.rip ~net:(net "172.16.0.0/12") ();
  run_for loop 5.0;
  check Alcotest.int "learned" 1 (Rip_process.route_count r2.rip);
  Rip_process.retract r1.rip (net "172.16.0.0/12");
  run_for loop 5.0;
  check Alcotest.int "poisoned away" 0 (Rip_process.route_count r2.rip);
  check Alcotest.bool "gone from RIB" true
    (Rib.lookup_best r2.rib (addr "172.16.5.5") = None)

let test_expiry_without_updates () =
  let loop, r1, r2 = pair () in
  Rip_process.inject r1.rip ~net:(net "172.16.0.0/12") ();
  run_for loop 5.0;
  check Alcotest.int "learned" 1 (Rip_process.route_count r2.rip);
  (* r1 dies silently: no poison, no updates. r2 must expire the route
     after the 180 s timeout. *)
  Rip_process.shutdown r1.rip;
  run_for loop 200.0;
  check Alcotest.int "expired" 0 (Rip_process.route_count r2.rip);
  check Alcotest.int "expiry counted" 1 (Rip_process.routes_expired r2.rip);
  check Alcotest.bool "gone from RIB" true
    (Rib.lookup_best r2.rib (addr "172.16.5.5") = None)

let test_three_router_chain_and_split_horizon () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a =
    make_router ~loop ~netsim ~ifaddr:"10.0.1.1" ~neighbors:[ "10.0.1.2" ] ()
  in
  let b_cfg =
    Rip_process.default_config
      ~ifaces:
        [ { Rip_process.if_addr = addr "10.0.1.2";
            if_neighbors = [ addr "10.0.1.1" ] };
          { Rip_process.if_addr = addr "10.0.2.2";
            if_neighbors = [ addr "10.0.2.3" ] } ]
  in
  let b_finder = Finder.create () in
  let _b_fea =
    Fea.create
      ~interfaces:[ ("eth0", addr "10.0.1.2"); ("eth1", addr "10.0.2.2") ]
      ~netsim b_finder loop ()
  in
  let _b_rib = Rib.create b_finder loop () in
  let b_rip = Rip_process.create b_finder loop b_cfg in
  let c =
    make_router ~loop ~netsim ~ifaddr:"10.0.2.3" ~neighbors:[ "10.0.2.2" ] ()
  in
  Rip_process.start a.rip;
  Rip_process.start b_rip;
  Rip_process.start c.rip;
  run_for loop 2.0;
  Rip_process.inject a.rip ~net:(net "172.16.0.0/12") ();
  run_for loop 40.0;
  (match Rip_process.lookup b_rip (net "172.16.0.0/12") with
   | Some (m, _) -> check Alcotest.int "b at metric 2" 2 m
   | None -> Alcotest.fail "b missing the route");
  (match Rip_process.lookup c.rip (net "172.16.0.0/12") with
   | Some (m, nh) ->
     check Alcotest.int "c at metric 3" 3 m;
     check Alcotest.string "via b" "10.0.2.2" (Ipv4.to_string nh)
   | None -> Alcotest.fail "c missing the route");
  (* Split horizon: a's own route must never come back to a with a
     higher metric (count-to-infinity protection). a's entry stays
     locally originated at metric 1. *)
  (match Rip_process.lookup a.rip (net "172.16.0.0/12") with
   | Some (m, _) -> check Alcotest.int "a keeps metric 1" 1 m
   | None -> Alcotest.fail "a lost its own route");
  (* Withdraw at a; the poison must ripple through b to c. *)
  Rip_process.retract a.rip (net "172.16.0.0/12");
  run_for loop 10.0;
  check Alcotest.int "c withdrew" 0 (Rip_process.route_count c.rip)

let test_metric_infinity_not_learned () =
  let loop, r1, r2 = pair () in
  (* Inject at metric 15: r2 would learn it at 16 = infinity. *)
  Rip_process.inject r1.rip ~net:(net "172.16.0.0/12") ~metric:15 ();
  run_for loop 40.0;
  check Alcotest.int "not learned at infinity" 0 (Rip_process.route_count r2.rip)

let test_better_route_replaces () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  (* c hears the same prefix from a (metric 5) and b (metric 1). *)
  let a =
    make_router ~loop ~netsim ~ifaddr:"10.0.0.1"
      ~neighbors:[ "10.0.0.3" ] ()
  in
  let b =
    make_router ~loop ~netsim ~ifaddr:"10.0.0.2"
      ~neighbors:[ "10.0.0.3" ] ()
  in
  let c_finder = Finder.create () in
  let _c_fea =
    Fea.create ~interfaces:[ ("eth0", addr "10.0.0.3") ] ~netsim c_finder loop ()
  in
  let _c_rib = Rib.create c_finder loop () in
  let c_rip =
    Rip_process.create c_finder loop
      (Rip_process.default_config
         ~ifaces:
           [ { Rip_process.if_addr = addr "10.0.0.3";
               if_neighbors = [ addr "10.0.0.1"; addr "10.0.0.2" ] } ])
  in
  Rip_process.start a.rip;
  Rip_process.start b.rip;
  Rip_process.start c_rip;
  run_for loop 1.0;
  Rip_process.inject a.rip ~net:(net "172.16.0.0/12") ~metric:5 ();
  run_for loop 10.0;
  (match Rip_process.lookup c_rip (net "172.16.0.0/12") with
   | Some (m, nh) ->
     check Alcotest.int "via a at 6" 6 m;
     check Alcotest.string "nexthop a" "10.0.0.1" (Ipv4.to_string nh)
   | None -> Alcotest.fail "no route via a");
  Rip_process.inject b.rip ~net:(net "172.16.0.0/12") ~metric:1 ();
  run_for loop 10.0;
  match Rip_process.lookup c_rip (net "172.16.0.0/12") with
  | Some (m, nh) ->
    check Alcotest.int "switched to b at 2" 2 m;
    check Alcotest.string "nexthop b" "10.0.0.2" (Ipv4.to_string nh)
  | None -> Alcotest.fail "no route via b"

let test_redistribution_from_rib () =
  (* A static route in r1's RIB is redistributed into RIP and learned
     by r2 — §3's route redistribution through the RIB's redist stage. *)
  let loop, r1, r2 = pair () in
  Result.get_ok
    (Rib.add_route r1.rib ~protocol:"static" ~net:(net "203.0.113.0/24")
       ~nexthop:(addr "10.0.0.254") ());
  run_for loop 1.0;
  Rip_process.subscribe_rib_redistribution r1.rip ~policy:"accept";
  run_for loop 10.0;
  (match Rip_process.lookup r2.rip (net "203.0.113.0/24") with
   | Some (m, _) -> check Alcotest.bool "learned via redist" true (m >= 2)
   | None -> Alcotest.fail "redistributed route not learned");
  (* Deleting the static route retracts it from RIP too. *)
  Result.get_ok
    (Rib.delete_route r1.rib ~protocol:"static" ~net:(net "203.0.113.0/24"));
  run_for loop 10.0;
  check Alcotest.bool "retracted" true
    (Rip_process.lookup r2.rip (net "203.0.113.0/24") = None)

let test_redistribution_survives_rib_restart () =
  (* The RIB's redist subscriber table dies with the instance. RIP must
     re-subscribe on rebirth, and its learned routes must be replayed
     into the reborn RIB's empty origin table. *)
  let loop, r1, r2 = pair () in
  Result.get_ok
    (Rib.add_route r1.rib ~protocol:"static" ~net:(net "203.0.113.0/24")
       ~nexthop:(addr "10.0.0.254") ());
  Rip_process.subscribe_rib_redistribution r1.rip ~policy:"accept";
  run_for loop 10.0;
  check Alcotest.bool "redistributed before the restart" true
    (Rip_process.lookup r2.rip (net "203.0.113.0/24") <> None);
  check Alcotest.int "r2's learned route in its RIB" 1
    (Rib.origin_route_count r2.rib "rip");
  (* Restart r1's RIB. *)
  Rib.shutdown r1.rib;
  run_for loop 1.0;
  let rib' = Rib.create r1.finder loop () in
  run_for loop 5.0;
  (* A static route added only to the NEW instance must still cross
     into RIP: the subscription was re-sent on rebirth. Without the
     resync this silently never propagates. *)
  Result.get_ok
    (Rib.add_route rib' ~protocol:"static" ~net:(net "198.51.100.0/24")
       ~nexthop:(addr "10.0.0.254") ());
  run_for loop 10.0;
  check Alcotest.bool "post-restart static crosses into RIP" true
    (Rip_process.lookup r2.rip (net "198.51.100.0/24") <> None);
  (* And the learned side of r1's table (routes heard from r2, not the
     redistributed injections) was replayed into the reborn RIB's
     empty rip origin table. *)
  let learned_r1 =
    List.length
      (List.filter
         (fun (_, _, nh) -> not (Ipv4.equal nh Ipv4.zero))
         (Rip_process.routes r1.rip))
  in
  check Alcotest.int "reborn RIB rip origin matches r1's learned table"
    learned_r1
    (Rib.origin_route_count rib' "rip")

(* RIP started while its FEA is down must open its socket when the FEA
   is born, even long after [udp_open]'s retries have run out. A
   process that assumed its FEA was up at creation would take that
   birth for a no-op and never learn a route. *)
let test_fea_born_late () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let r1 =
    make_router ~loop ~netsim ~ifaddr:"10.0.0.1" ~neighbors:[ "10.0.0.2" ] ()
  in
  let finder = Finder.create () in
  let _rib = Rib.create finder loop () in
  let rip =
    Rip_process.create finder loop
      (Rip_process.default_config
         ~ifaces:
           [ { Rip_process.if_addr = addr "10.0.0.2";
               if_neighbors = [ addr "10.0.0.1" ] } ])
  in
  Rip_process.start r1.rip;
  Rip_process.start rip;
  Rip_process.inject r1.rip ~net:(net "172.16.0.0/12") ();
  run_for loop 120.0;
  check Alcotest.int "nothing learned without an FEA" 0
    (Rip_process.route_count rip);
  let _fea =
    Fea.create ~interfaces:[ ("eth0", addr "10.0.0.2") ] ~netsim finder loop ()
  in
  run_for loop 10.0;
  check Alcotest.int "learned once the FEA is born" 1
    (Rip_process.route_count rip)

let test_counters () =
  let loop, r1, r2 = pair () in
  Rip_process.inject r1.rip ~net:(net "172.16.0.0/12") ();
  run_for loop 100.0;
  check Alcotest.bool "periodic updates flowed" true
    (Rip_process.updates_sent r1.rip >= 3);
  check Alcotest.bool "updates received" true
    (Rip_process.updates_received r2.rip >= 3);
  check Alcotest.bool "triggered updates counted" true
    (Rip_process.triggered_updates_sent r1.rip >= 1)

(* --- the hand-off to the RIB ---------------------------------------- *)

(* The RIB holds exactly RIP's live learned routes. A learned route
   that RIP starts to originate must leave it: otherwise r2 keeps
   forwarding via the neighbour that withdrew the route. Killing the
   local route afterwards queues nothing for a RIB that never held
   it. *)
let test_inject_over_learned_route () =
  let loop, r1, r2 = pair () in
  let p = net "172.16.0.0/12" in
  Rip_process.inject r1.rip ~net:p ();
  run_for loop 5.0;
  check Alcotest.int "r2's RIB learned it" 1
    (Rib.origin_route_count r2.rib "rip");
  Rip_process.inject r2.rip ~net:p ();
  Rip_process.retract r1.rip p;
  run_for loop 5.0;
  check Alcotest.int "r2's RIB holds no rip route" 0
    (Rib.origin_route_count r2.rib "rip");
  check Alcotest.bool "r2's FIB does not forward via r1" true
    (Fib.lookup (Fea.fib r2.fea) (addr "172.16.5.5") = None);
  Telemetry.Profile.enable "rip_queued_rib";
  ignore (Telemetry.Profile.drain ());
  Rip_process.retract r2.rip p;
  let queued = Telemetry.Profile.drain () in
  Telemetry.Profile.disable "rip_queued_rib";
  check Alcotest.int "killing the local route queues nothing" 0
    (List.length queued)

(* Two responses for one learned prefix in one loop turn: a metric
   change, then metric 16. The change queues as a Replace of the route
   the RIB holds, which folds with the Delete into a Delete; queued as
   an Add it would cancel against the Delete and leave the old route in
   the RIB. *)
let test_changes_fold_into_one_delete () =
  let loop, _r1, r2 = pair () in
  let p = net "172.16.0.0/12" in
  let caller = Xrl_router.create r2.finder loop ~class_name:"test" () in
  (* fea_client/1.0/recv, as the FEA's relay delivers a datagram from
     r1; intra-process dispatch runs the handler at once. *)
  let respond metric =
    Xrl_router.send caller
      (Xrl.make ~target:"rip" ~interface:"fea_client" ~method_name:"recv"
         [ Xrl_atom.u32 "sockid" 0; Xrl_atom.ipv4 "src" (addr "10.0.0.1");
           Xrl_atom.u32 "sport" 520;
           Xrl_atom.binary "payload"
             (Rip_packet.encode
                { Rip_packet.command = Rip_packet.Response;
                  entries =
                    [ { Rip_packet.net = p; nexthop = Ipv4.zero; metric;
                        tag = 0 } ] }) ])
      (fun err _ ->
         if not (Xrl_error.is_ok err) then
           Alcotest.failf "recv: %s" (Xrl_error.to_string err))
  in
  respond 1;
  run_for loop 1.0;
  check Alcotest.int "learned into the RIB" 1
    (Rib.origin_route_count r2.rib "rip");
  respond 3;
  respond 16;
  check Alcotest.(option (pair int string)) "RIP killed it in the same turn"
    None
    (Option.map
       (fun (m, nh) -> (m, Ipv4.to_string nh))
       (Rip_process.lookup r2.rip p));
  run_for loop 1.0;
  check Alcotest.int "the RIB ends without the route" 0
    (Rib.origin_route_count r2.rib "rip");
  check Alcotest.bool "so does the FIB" true
    (Fib.lookup (Fea.fib r2.fea) (addr "172.16.5.5") = None)

let () =
  Alcotest.run "xorp_rip"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "whole-table request" `Quick
            test_whole_table_request;
          Alcotest.test_case "rejects malformed" `Quick test_packet_rejects;
          Alcotest.test_case "split" `Quick test_split;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "exchange" `Quick test_exchange;
          Alcotest.test_case "triggered updates are fast" `Quick
            test_triggered_update_is_fast;
          Alcotest.test_case "withdrawal poisons" `Quick test_withdrawal_poisons;
          Alcotest.test_case "expiry without updates" `Quick
            test_expiry_without_updates;
          Alcotest.test_case "three-router chain + split horizon" `Quick
            test_three_router_chain_and_split_horizon;
          Alcotest.test_case "infinity not learned" `Quick
            test_metric_infinity_not_learned;
          Alcotest.test_case "better route replaces" `Quick
            test_better_route_replaces;
          Alcotest.test_case "redistribution from RIB" `Quick
            test_redistribution_from_rib;
          Alcotest.test_case "redistribution survives RIB restart" `Quick
            test_redistribution_survives_rib_restart;
          Alcotest.test_case "FEA born 120 s late" `Quick test_fea_born_late;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "rib",
        [
          Alcotest.test_case "inject over a learned route" `Quick
            test_inject_over_learned_route;
          Alcotest.test_case "changes fold into one delete" `Quick
            test_changes_fold_into_one_delete;
        ] );
    ]
