(* BGP convergence under a peering flap (paper §5.1.2).

   Two routers exchange a 50,000-route table; then the peering is
   killed. Watch the receiving router hand the dead session's table to
   a dynamic background deletion stage, stay responsive to a competing
   peer's updates throughout, and relearn everything when the peering
   returns — while the stacked deletion stages quietly retire.

     dune exec examples/bgp_convergence.exe *)

let addr = Ipv4.of_string_exn
let table_size = 50_000

let mknet i = Ipv4net.make (Ipv4.of_octets 100 (i / 256) (i mod 256) 0) 24

let () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let mk as_ id =
    let finder = Finder.create () in
    Bgp_process.create ~nexthop_mode:`Assume_resolvable
      finder loop ~netsim ~local_as:as_ ~bgp_id:(addr id) ()
  in
  let a = mk 65001 "1.1.1.1" in
  let b = mk 65002 "2.2.2.2" in
  let c = mk 65003 "3.3.3.3" in
  (* a and c both peer with b; deletion at b runs 100 routes/slice. *)
  Bgp_process.add_peer a
    (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
       ~local_addr:(addr "10.0.0.1") ~peer_as:65002);
  Bgp_process.add_peer b
    { (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
         ~local_addr:(addr "10.0.0.2") ~peer_as:65001)
      with Bgp_process.deletion_slice = 100 };
  Bgp_process.add_peer c
    (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.2.2")
       ~local_addr:(addr "10.0.2.3") ~peer_as:65002);
  Bgp_process.add_peer b
    (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.2.3")
       ~local_addr:(addr "10.0.2.2") ~peer_as:65003);
  List.iter Bgp_process.start [ a; b; c ];
  Eventloop.run_until_time loop 5.0;
  Printf.printf "sessions up: b has %d established peers\n"
    (Bgp_process.established_count b);

  Printf.printf "a originates %d routes...\n%!" table_size;
  for i = 0 to table_size - 1 do
    Bgp_process.originate a (mknet i)
  done;
  Eventloop.run
    ~until:(fun () -> Bgp_process.route_count b >= table_size)
    loop;
  Printf.printf "b converged: %d routes at t=%.1fs (sim)\n\n"
    (Bgp_process.route_count b) (Eventloop.now loop);

  (* Kill the peering. *)
  Printf.printf "killing the a-b peering...\n";
  Bgp_process.remove_peer a (addr "10.0.0.2");
  Eventloop.run
    ~until:(fun () -> Bgp_process.deletion_stages b (addr "10.0.0.1") = 1)
    loop;
  Printf.printf
    "b spawned a background deletion stage; PeerIn already empty (%d routes)\n"
    (Bgp_process.ribin_count b (addr "10.0.0.1"));

  (* While 50k deletes grind through in the background, a competing
     update from c must go through promptly — the §5.1.2 point. *)
  let t0 = Eventloop.now loop in
  Bgp_process.originate c (Ipv4net.of_string_exn "203.0.113.0/24");
  Eventloop.run
    ~until:(fun () ->
        Bgp_process.ribin_count b (addr "10.0.2.3") >= 1)
    loop;
  Printf.printf
    "c's update processed in %.3fs (sim) while the deletion was in progress\n"
    (Eventloop.now loop -. t0);

  (* Peer a comes back before the deletion finishes. *)
  Printf.printf "\nre-establishing the a-b peering...\n";
  Bgp_process.add_peer a
    (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
       ~local_addr:(addr "10.0.0.1") ~peer_as:65002);
  for i = 0 to table_size - 1 do
    Bgp_process.originate a (mknet i)
  done;
  Eventloop.run
    ~until:(fun () -> Bgp_process.route_count b >= table_size + 1)
    loop;
  Printf.printf "b reconverged: %d routes (50k relearned + c's one)\n"
    (Bgp_process.route_count b);
  Eventloop.run
    ~until:(fun () -> Bgp_process.deletion_stages b (addr "10.0.0.1") = 0)
    loop;
  Printf.printf "all deletion stages retired by t=%.1fs (sim)\n"
    (Eventloop.now loop);
  Printf.printf "\nconsistency violations at b: %d\n"
    (List.length (Bgp_process.cache_violations b))
