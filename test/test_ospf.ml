(* Tests for the link-state protocol: the pure SPF computation, the
   packet codec, and full multi-router convergence over the FEA relay
   (adjacency, flooding, SPF, RIB installation, failover). *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* --- SPF (pure) ------------------------------------------------------- *)

let view origin links stubs =
  { Spf.origin = addr origin;
    links = List.map (fun (n, c) -> { Spf.to_node = addr n; cost = c }) links;
    stubs = List.map (fun (p, c) -> (net p, c)) stubs }

(* A classic diamond: a - b(1) - d(1), a - c(10) - d(1). *)
let diamond =
  [ view "1.1.1.1" [ ("2.2.2.2", 1); ("3.3.3.3", 10) ] [ ("10.1.0.0/16", 1) ];
    view "2.2.2.2" [ ("1.1.1.1", 1); ("4.4.4.4", 1) ] [ ("10.2.0.0/16", 1) ];
    view "3.3.3.3" [ ("1.1.1.1", 10); ("4.4.4.4", 1) ] [ ("10.3.0.0/16", 1) ];
    view "4.4.4.4" [ ("2.2.2.2", 1); ("3.3.3.3", 1) ] [ ("10.4.0.0/16", 1) ] ]

let path_to paths who =
  List.find_map
    (fun (n, p) -> if Ipv4.equal n (addr who) then Some p else None)
    paths

let test_spf_diamond () =
  let paths = Spf.run ~root:(addr "1.1.1.1") diamond in
  check Alcotest.int "three destinations" 3 (List.length paths);
  (match path_to paths "4.4.4.4" with
   | Some p ->
     check Alcotest.int "d via the cheap side" 2 p.Spf.dist;
     check Alcotest.string "first hop b" "2.2.2.2" (Ipv4.to_string p.first_hop)
   | None -> Alcotest.fail "no path to d");
  match path_to paths "3.3.3.3" with
  | Some p ->
    (* direct cost 10 vs b-d-c = 1+1+1 = 3 *)
    check Alcotest.int "c via d, not direct" 3 p.Spf.dist;
    check Alcotest.string "still first hop b" "2.2.2.2"
      (Ipv4.to_string p.first_hop)
  | None -> Alcotest.fail "no path to c"

let test_spf_unidirectional_link_ignored () =
  (* b advertises a link to c, but c does not reciprocate: unusable. *)
  let lsas =
    [ view "1.1.1.1" [ ("2.2.2.2", 1) ] [];
      view "2.2.2.2" [ ("1.1.1.1", 1); ("3.3.3.3", 1) ] [];
      view "3.3.3.3" [] [ ("10.3.0.0/16", 1) ] ]
  in
  let paths = Spf.run ~root:(addr "1.1.1.1") lsas in
  check Alcotest.bool "c unreachable" true (path_to paths "3.3.3.3" = None);
  let routes = Spf.routes ~root:(addr "1.1.1.1") lsas in
  check Alcotest.bool "c's stub unreachable" true
    (not (List.exists (fun (n, _, _) -> Ipv4net.equal n (net "10.3.0.0/16")) routes))

let test_spf_routes_pick_cheapest_advertiser () =
  (* The same prefix advertised by b (far) and c (near). *)
  let lsas =
    [ view "1.1.1.1" [ ("2.2.2.2", 5); ("3.3.3.3", 1) ] [];
      view "2.2.2.2" [ ("1.1.1.1", 5) ] [ ("10.9.0.0/16", 1) ];
      view "3.3.3.3" [ ("1.1.1.1", 1) ] [ ("10.9.0.0/16", 1) ] ]
  in
  match Spf.routes ~root:(addr "1.1.1.1") lsas with
  | [ (n, cost, fh) ] ->
    check Alcotest.string "prefix" "10.9.0.0/16" (Ipv4net.to_string n);
    check Alcotest.int "cost via c" 2 cost;
    check Alcotest.string "first hop c" "3.3.3.3" (Ipv4.to_string fh)
  | l -> Alcotest.failf "expected 1 route, got %d" (List.length l)

let test_spf_empty_and_self () =
  check Alcotest.int "empty db" 0
    (List.length (Spf.run ~root:(addr "1.1.1.1") []));
  let own = [ view "1.1.1.1" [] [ ("10.1.0.0/16", 3) ] ] in
  match Spf.routes ~root:(addr "1.1.1.1") own with
  | [ (_, cost, fh) ] ->
    check Alcotest.int "own stub cost" 3 cost;
    check Alcotest.string "first hop self" "1.1.1.1" (Ipv4.to_string fh)
  | l -> Alcotest.failf "expected own stub, got %d" (List.length l)

let prop_spf_triangle_inequality =
  (* On random graphs, the SPF distance to any node never exceeds the
     distance to a neighbour of that node plus the link cost. *)
  QCheck.Test.make ~name:"spf respects triangle inequality" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 24) (pair (int_bound 8) (int_range 1 20)))
    (fun edges ->
       let node i = Ipv4.of_octets 10 0 0 (1 + i) in
       (* Build symmetric random graph over 9 nodes. *)
       let links = Array.make 9 [] in
       List.iteri
         (fun i (a, cost) ->
            let b = (a + 1 + (i mod 7)) mod 9 in
            if a <> b then begin
              links.(a) <- (node b, cost) :: links.(a);
              links.(b) <- (node a, cost) :: links.(b)
            end)
         edges;
       let lsas =
         List.init 9 (fun i ->
             { Spf.origin = node i;
               links = List.map (fun (n, c) -> { Spf.to_node = n; cost = c }) links.(i);
               stubs = [] })
       in
       let paths = Spf.run ~root:(node 0) lsas in
       let dist i =
         if i = 0 then Some 0
         else
           List.find_map
             (fun (n, p) ->
                if Ipv4.equal n (node i) then Some p.Spf.dist else None)
             paths
       in
       List.for_all
         (fun i ->
            List.for_all
              (fun (nb, cost) ->
                 let j = (Ipv4.to_int nb) land 0xFF in
                 let j = j - 1 in
                 match dist i, dist j with
                 | Some di, Some dj -> dj <= di + cost
                 | Some _, None -> false (* neighbour of reachable must be reachable *)
                 | None, _ -> true)
              links.(i))
         (List.init 9 (fun i -> i)))

(* --- codec -------------------------------------------------------------- *)

let test_packet_roundtrip () =
  let hello = Ospf_packet.Hello
      { router_id = addr "1.1.1.1"; heard = [ addr "2.2.2.2"; addr "3.3.3.3" ] }
  in
  (match Ospf_packet.decode (Ospf_packet.encode hello) with
   | Ok (Ospf_packet.Hello { router_id; heard }) ->
     check Alcotest.string "id" "1.1.1.1" (Ipv4.to_string router_id);
     check Alcotest.int "heard" 2 (List.length heard)
   | _ -> Alcotest.fail "hello roundtrip");
  let lsu =
    Ospf_packet.Ls_update
      [ { Ospf_packet.origin = addr "1.1.1.1"; seq = 42;
          links = [ (addr "2.2.2.2", 10) ];
          stubs = [ (net "10.0.0.0/8", 1); (net "128.16.0.0/18", 5) ] } ]
  in
  match Ospf_packet.decode (Ospf_packet.encode lsu) with
  | Ok (Ospf_packet.Ls_update [ lsa ]) ->
    check Alcotest.int "seq" 42 lsa.Ospf_packet.seq;
    check Alcotest.int "links" 1 (List.length lsa.links);
    check Alcotest.int "stubs" 2 (List.length lsa.stubs)
  | _ -> Alcotest.fail "lsupdate roundtrip"

let test_packet_rejects () =
  List.iter
    (fun s ->
       match Ospf_packet.decode s with
       | Ok _ -> Alcotest.failf "accepted %S" s
       | Error _ -> ())
    [ ""; "XX"; "\x4C\x53\x09"; "\x4C\x53\x01\x01" ]

(* --- full routers --------------------------------------------------------- *)

type router = {
  fea : Fea.t;
  rib : Rib.t;
  ospf : Ospf_process.t;
}

let make_router ~loop ~netsim ~router_id ~ifaddr ~neighbors ~stubs () =
  let finder = Finder.create () in
  let fea =
    Fea.create ~interfaces:[ ("eth0", addr ifaddr) ] ~netsim finder loop ()
  in
  let rib = Rib.create finder loop () in
  let cfg =
    Ospf_process.default_config ~router_id:(addr router_id)
      ~ifaces:
        [ { Ospf_process.o_addr = addr ifaddr;
            o_neighbors =
              List.map
                (fun (a, id, cost) ->
                   { Ospf_process.n_addr = addr a; n_id = addr id; n_cost = cost })
                neighbors } ]
      ~stub_prefixes:(List.map (fun (p, c) -> (net p, c)) stubs)
      ()
  in
  let ospf = Ospf_process.create finder loop cfg in
  Ospf_process.start ospf;
  { fea; rib; ospf }

let run_for loop s = Eventloop.run_until_time loop (Eventloop.now loop +. s)

(* Chain topology: a (10.0.1.1) -- b (10.0.1.2/10.0.2.2) -- c (10.0.2.3) *)
let chain () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a =
    make_router ~loop ~netsim ~router_id:"1.1.1.1" ~ifaddr:"10.0.1.1"
      ~neighbors:[ ("10.0.1.2", "2.2.2.2", 1) ]
      ~stubs:[ ("172.16.0.0/16", 1) ]
      ()
  in
  (* b has two interfaces. *)
  let b_finder = Finder.create () in
  let b_fea =
    Fea.create
      ~interfaces:[ ("eth0", addr "10.0.1.2"); ("eth1", addr "10.0.2.2") ]
      ~netsim b_finder loop ()
  in
  let b_rib = Rib.create b_finder loop () in
  let b_cfg =
    Ospf_process.default_config ~router_id:(addr "2.2.2.2")
      ~ifaces:
        [ { Ospf_process.o_addr = addr "10.0.1.2";
            o_neighbors =
              [ { Ospf_process.n_addr = addr "10.0.1.1"; n_id = addr "1.1.1.1";
                  n_cost = 1 } ] };
          { Ospf_process.o_addr = addr "10.0.2.2";
            o_neighbors =
              [ { Ospf_process.n_addr = addr "10.0.2.3"; n_id = addr "3.3.3.3";
                  n_cost = 1 } ] } ]
      ()
  in
  let b_ospf = Ospf_process.create b_finder loop b_cfg in
  Ospf_process.start b_ospf;
  let b = { fea = b_fea; rib = b_rib; ospf = b_ospf } in
  let c =
    make_router ~loop ~netsim ~router_id:"3.3.3.3" ~ifaddr:"10.0.2.3"
      ~neighbors:[ ("10.0.2.2", "2.2.2.2", 1) ]
      ~stubs:[ ("192.168.0.0/16", 1) ]
      ()
  in
  (loop, a, b, c)

(* OSPF started while its FEA is down must open its socket when the
   FEA is born, even long after [udp_open]'s retries have run out. A
   process that assumed its FEA was up at creation would take that
   birth for a no-op and never form the adjacency. *)
let test_fea_born_late () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let a =
    make_router ~loop ~netsim ~router_id:"1.1.1.1" ~ifaddr:"10.0.1.1"
      ~neighbors:[ ("10.0.1.2", "2.2.2.2", 1) ]
      ~stubs:[ ("172.16.0.0/16", 1) ]
      ()
  in
  let finder = Finder.create () in
  let rib = Rib.create finder loop () in
  let ospf =
    Ospf_process.create finder loop
      (Ospf_process.default_config ~router_id:(addr "2.2.2.2")
         ~ifaces:
           [ { Ospf_process.o_addr = addr "10.0.1.2";
               o_neighbors =
                 [ { Ospf_process.n_addr = addr "10.0.1.1";
                     n_id = addr "1.1.1.1"; n_cost = 1 } ] } ]
         ())
  in
  Ospf_process.start ospf;
  run_for loop 120.0;
  check Alcotest.bool "no adjacency without an FEA" false
    (Ospf_process.adjacency_up ospf (addr "1.1.1.1"));
  let _fea =
    Fea.create ~interfaces:[ ("eth0", addr "10.0.1.2") ] ~netsim finder loop ()
  in
  run_for loop 30.0;
  check Alcotest.bool "adjacency once the FEA is born" true
    (Ospf_process.adjacency_up ospf (addr "1.1.1.1"));
  check Alcotest.bool "and seen from the other side" true
    (Ospf_process.adjacency_up a.ospf (addr "2.2.2.2"));
  match Rib.lookup_best rib (addr "172.16.5.5") with
  | Some r -> check Alcotest.string "learned a's stub" "ospf" r.Rib_route.protocol
  | None -> Alcotest.fail "a's stub not learned"

let test_chain_convergence () =
  let loop, a, b, c = chain () in
  run_for loop 30.0;
  check Alcotest.bool "a-b adjacency" true
    (Ospf_process.adjacency_up a.ospf (addr "2.2.2.2"));
  check Alcotest.bool "b-c adjacency" true
    (Ospf_process.adjacency_up b.ospf (addr "3.3.3.3"));
  check Alcotest.int "a sees all 3 LSAs" 3 (Ospf_process.lsdb_size a.ospf);
  check Alcotest.int "c sees all 3 LSAs" 3 (Ospf_process.lsdb_size c.ospf);
  (* a learned c's stub across the chain, metric 1+1+1. *)
  (match Rib.lookup_best a.rib (addr "192.168.5.5") with
   | Some r ->
     check Alcotest.string "protocol" "ospf" r.Rib_route.protocol;
     check Alcotest.int "metric" 3 r.metric;
     check Alcotest.string "nexthop is b" "10.0.1.2" (Ipv4.to_string r.nexthop)
   | None -> Alcotest.fail "a did not learn c's stub");
  (* and into the FIB *)
  (match Fib.lookup (Fea.fib a.fea) (addr "192.168.5.5") with
   | Some e -> check Alcotest.string "fib" "ospf" e.Fib.protocol
   | None -> Alcotest.fail "not installed in a's FIB");
  (* c learned a's stub symmetric. *)
  match Rib.lookup_best c.rib (addr "172.16.5.5") with
  | Some r ->
    check Alcotest.string "c's nexthop is b" "10.0.2.2" (Ipv4.to_string r.nexthop)
  | None -> Alcotest.fail "c did not learn a's stub"

let test_dead_neighbor_withdraws () =
  let loop, a, b, c = chain () in
  run_for loop 30.0;
  check Alcotest.bool "converged" true
    (Rib.lookup_best a.rib (addr "192.168.5.5") <> None);
  (* c dies silently. After the dead interval, b drops the adjacency,
     floods a new LSA, and a withdraws c's routes. *)
  Ospf_process.shutdown c.ospf;
  run_for loop 60.0;
  check Alcotest.bool "b sees c down" false
    (Ospf_process.adjacency_up b.ospf (addr "3.3.3.3"));
  check Alcotest.bool "a withdrew c's stub" true
    (Rib.lookup_best a.rib (addr "192.168.5.5") = None);
  check Alcotest.bool "gone from a's FIB too" true
    (Fib.lookup (Fea.fib a.fea) (addr "192.168.5.5") = None);
  (* a's own stub unaffected *)
  ignore b

let test_new_stub_floods () =
  let loop, a, _, c = chain () in
  run_for loop 30.0;
  Ospf_process.add_stub c.ospf (net "203.0.113.0/24") 2;
  run_for loop 5.0;
  match Rib.lookup_best a.rib (addr "203.0.113.7") with
  | Some r -> check Alcotest.int "cost 1+1+2" 4 r.Rib_route.metric
  | None -> Alcotest.fail "new stub did not flood to a"

let test_remove_stub_withdraws () =
  let loop, a, _, c = chain () in
  run_for loop 30.0;
  check Alcotest.bool "present" true
    (Rib.lookup_best a.rib (addr "192.168.5.5") <> None);
  Ospf_process.remove_stub c.ospf (net "192.168.0.0/16");
  run_for loop 5.0;
  check Alcotest.bool "withdrawn" true
    (Rib.lookup_best a.rib (addr "192.168.5.5") = None)

let test_spf_count_debounced () =
  let loop, a, _, _ = chain () in
  run_for loop 60.0;
  (* Convergence plus periodic refreshes must not run SPF thousands of
     times: the debounce coalesces bursts. *)
  check Alcotest.bool
    (Printf.sprintf "spf ran a sane number of times (%d)"
       (Ospf_process.spf_runs a.ospf))
    true
    (Ospf_process.spf_runs a.ospf < 30)

let test_triangle_failover () =
  (* a-b cost 1, b-c cost 1, a-c cost 5: traffic a->c prefers the
     two-hop path; when b dies, it fails over to the direct link. *)
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let mk rid ifaddrs =
    let finder = Finder.create () in
    let fea =
      Fea.create
        ~interfaces:(List.mapi (fun i (a, _) -> (Printf.sprintf "eth%d" i, addr a)) ifaddrs)
        ~netsim finder loop ()
    in
    let rib = Rib.create finder loop () in
    (finder, fea, rib, rid, ifaddrs)
  in
  let iface (a, nbrs) =
    { Ospf_process.o_addr = addr a;
      o_neighbors =
        List.map
          (fun (na, nid, c) ->
             { Ospf_process.n_addr = addr na; n_id = addr nid; n_cost = c })
          nbrs }
  in
  let build (finder, fea, rib, rid, ifaddrs) stubs =
    let cfg =
      Ospf_process.default_config ~router_id:(addr rid)
        ~ifaces:(List.map iface ifaddrs)
        ~stub_prefixes:(List.map (fun (p, c) -> (net p, c)) stubs)
        ()
    in
    let o = Ospf_process.create finder loop cfg in
    Ospf_process.start o;
    (fea, rib, o)
  in
  let _, a_rib, _a =
    build
      (mk "1.1.1.1"
         [ ("10.0.1.1", [ ("10.0.1.2", "2.2.2.2", 1) ]);
           ("10.0.3.1", [ ("10.0.3.3", "3.3.3.3", 5) ]) ])
      []
  in
  let _, _, b_ospf =
    build
      (mk "2.2.2.2"
         [ ("10.0.1.2", [ ("10.0.1.1", "1.1.1.1", 1) ]);
           ("10.0.2.2", [ ("10.0.2.3", "3.3.3.3", 1) ]) ])
      []
  in
  let _, _, _c =
    build
      (mk "3.3.3.3"
         [ ("10.0.2.3", [ ("10.0.2.2", "2.2.2.2", 1) ]);
           ("10.0.3.3", [ ("10.0.3.1", "1.1.1.1", 5) ]) ])
      [ ("192.168.0.0/16", 1) ]
  in
  run_for loop 30.0;
  (match Rib.lookup_best a_rib (addr "192.168.1.1") with
   | Some r ->
     check Alcotest.int "prefers 2-hop path" 3 r.Rib_route.metric;
     check Alcotest.string "via b" "10.0.1.2" (Ipv4.to_string r.nexthop)
   | None -> Alcotest.fail "no route via b");
  Ospf_process.shutdown b_ospf;
  run_for loop 60.0;
  match Rib.lookup_best a_rib (addr "192.168.1.1") with
  | Some r ->
    check Alcotest.int "fails over to direct link" 6 r.Rib_route.metric;
    check Alcotest.string "via c directly" "10.0.3.3" (Ipv4.to_string r.nexthop)
  | None -> Alcotest.fail "no failover route"

let () =
  Alcotest.run "xorp_ospf"
    [
      ( "spf",
        [
          Alcotest.test_case "diamond" `Quick test_spf_diamond;
          Alcotest.test_case "unidirectional link ignored" `Quick
            test_spf_unidirectional_link_ignored;
          Alcotest.test_case "cheapest advertiser" `Quick
            test_spf_routes_pick_cheapest_advertiser;
          Alcotest.test_case "empty and self" `Quick test_spf_empty_and_self;
          QCheck_alcotest.to_alcotest prop_spf_triangle_inequality;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_packet_rejects;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "chain convergence" `Quick test_chain_convergence;
          Alcotest.test_case "dead neighbor withdraws" `Quick
            test_dead_neighbor_withdraws;
          Alcotest.test_case "new stub floods" `Quick test_new_stub_floods;
          Alcotest.test_case "remove stub withdraws" `Quick
            test_remove_stub_withdraws;
          Alcotest.test_case "spf debounced" `Quick test_spf_count_debounced;
          Alcotest.test_case "triangle failover" `Quick test_triangle_failover;
          Alcotest.test_case "FEA born 120 s late" `Quick test_fea_born_late;
        ] );
    ]
