(* Tests for the umbrella API (Xorp). *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let test_version () =
  check Alcotest.bool "semver-ish" true
    (String.length Xorp.version >= 5 && String.contains Xorp.version '.')

let test_make_stack_wiring () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let stack =
    Xorp.make_stack ~interfaces:[ ("eth0", addr "10.0.0.1") ] ~loop
      ~net:netsim ()
  in
  Eventloop.run_until_idle loop;
  (* Connected route present and installed. *)
  (match Rib.lookup_best stack.Xorp.rib (addr "10.0.0.200") with
   | Some r -> check Alcotest.string "connected" "connected" r.Rib_route.protocol
   | None -> Alcotest.fail "no connected route");
  check Alcotest.int "fib" 1 (Fib.size (Fea.fib stack.Xorp.fea));
  check Alcotest.bool "no protocols yet" true
    (stack.Xorp.bgp = None && stack.Xorp.rip = None);
  Xorp.shutdown_stack stack

let test_stack_with_protocols () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let s1 =
    Xorp.make_stack ~interfaces:[ ("eth0", addr "10.0.0.1") ] ~loop
      ~net:netsim ()
  in
  let s2 =
    Xorp.make_stack ~interfaces:[ ("eth0", addr "10.0.0.2") ] ~loop
      ~net:netsim ()
  in
  let bgp1 =
    Xorp.add_bgp s1 ~local_as:65001 ~bgp_id:(addr "1.1.1.1")
      ~peers:
        [ Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
            ~local_addr:(addr "10.0.0.1") ~peer_as:65002 ]
      ()
  in
  let bgp2 =
    Xorp.add_bgp s2 ~local_as:65002 ~bgp_id:(addr "2.2.2.2")
      ~peers:
        [ Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
            ~local_addr:(addr "10.0.0.2") ~peer_as:65001 ]
      ()
  in
  Xorp.run_stacks loop ~seconds:5.0;
  check Alcotest.int "session up" 1 (Bgp_process.established_count bgp1);
  Bgp_process.originate bgp1 (net "128.16.0.0/16");
  Xorp.run_stacks loop ~seconds:5.0;
  check Alcotest.int "route across" 1 (Bgp_process.route_count bgp2);
  (* It used the RIB+FEA of stack 2 (nexthop resolves via the connected
     /24). *)
  (match Rib.lookup_best s2.Xorp.rib (addr "128.16.1.1") with
   | Some r -> check Alcotest.string "in s2 rib" "ebgp" r.Rib_route.protocol
   | None -> Alcotest.fail "not in s2's rib");
  Xorp.shutdown_stack s1;
  Xorp.shutdown_stack s2

let () =
  Alcotest.run "xorp_core"
    [
      ( "umbrella",
        [
          Alcotest.test_case "version" `Quick test_version;
          Alcotest.test_case "make_stack wiring" `Quick test_make_stack_wiring;
          Alcotest.test_case "two stacks with bgp" `Quick
            test_stack_with_protocols;
        ] );
    ]
