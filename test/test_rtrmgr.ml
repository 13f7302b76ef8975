(* Router Manager tests: config parsing, template validation, booting
   complete routers from configuration text, and operator commands. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* --- config tree -------------------------------------------------------- *)

let parse_ok s =
  match Config_tree.parse s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_basic () =
  let cfg = parse_ok {|
# a comment
protocols {
    bgp {
        local-as: 65001
        peer 10.0.0.2 {
            as: 65002
        }
    }
}
|} in
  let bgp = Option.get (Config_tree.path cfg [ "protocols"; "bgp" ]) in
  check (Alcotest.option Alcotest.string) "leaf" (Some "65001")
    (Config_tree.leaf bgp "local-as");
  match Config_tree.children bgp "peer" with
  | [ peer ] ->
    check (Alcotest.option Alcotest.string) "key" (Some "10.0.0.2")
      peer.Config_tree.key;
    check (Alcotest.option Alcotest.string) "peer leaf" (Some "65002")
      (Config_tree.leaf peer "as")
  | l -> Alcotest.failf "expected one peer, got %d" (List.length l)

let test_parse_multiple_same_name () =
  let cfg = parse_ok {|
protocols {
    static {
        route 10.0.0.0/8 { nexthop: 192.0.2.1 }
        route 20.0.0.0/8 { nexthop: 192.0.2.2 }
    }
}
|} in
  let static = Option.get (Config_tree.path cfg [ "protocols"; "static" ]) in
  check Alcotest.int "two routes" 2
    (List.length (Config_tree.children static "route"))

let test_parse_errors () =
  List.iter
    (fun (s, what) ->
       match Config_tree.parse s with
       | Ok _ -> Alcotest.failf "accepted %s" what
       | Error e ->
         check Alcotest.bool
           (Printf.sprintf "%s error has line number: %s" what e)
           true
           (String.length e > 5 && String.sub e 0 5 = "line "))
    [ ("a {", "unclosed block");
      ("}", "unmatched brace");
      ("word", "dangling word");
      ("a b c {}", "two keys");
      ("x:\n", "missing value") ]

let test_render_roundtrip () =
  let src = {|
interfaces {
    interface eth0 {
        address: 10.0.0.1
    }
}
protocols {
    static {
        route 10.0.0.0/8 {
            nexthop: 192.0.2.1
        }
    }
}
|} in
  let cfg = parse_ok src in
  let cfg2 = parse_ok (Config_tree.render cfg) in
  check Alcotest.string "render/parse fixpoint" (Config_tree.render cfg)
    (Config_tree.render cfg2)

(* Random config trees survive a render/parse round trip. *)
let prop_render_parse_fixpoint =
  let gen_tree =
    QCheck.Gen.(
      let word = map (fun i -> Printf.sprintf "w%d" i) (int_bound 30) in
      let leaf = pair word (map (fun i -> Printf.sprintf "v%d" i) (int_bound 99)) in
      let rec node depth =
        let* name = word in
        let* key = opt (map (fun i -> Printf.sprintf "k%d" i) (int_bound 9)) in
        let* leaves = list_size (int_bound 3) leaf in
        let* children =
          if depth = 0 then return [] else list_size (int_bound 2) (node (depth - 1))
        in
        return { Config_tree.name; key; leaves; children }
      in
      let* children = list_size (int_range 1 4) (node 2) in
      let* leaves = list_size (int_bound 2) leaf in
      return { Config_tree.name = "root"; key = None; leaves; children })
  in
  QCheck.Test.make ~name:"config render/parse fixpoint" ~count:200
    (QCheck.make gen_tree)
    (fun tree ->
       let rendered = Config_tree.render tree in
       match Config_tree.parse rendered with
       | Error _ -> false
       | Ok back -> Config_tree.render back = rendered)

(* --- template validation -------------------------------------------------- *)

let validate s =
  Template.validate Template.builtin (parse_ok s)

let test_validate_good () =
  match
    validate {|
interfaces {
    interface eth0 { address: 10.0.0.1 }
}
protocols {
    bgp {
        local-as: 65001
        bgp-id: 1.1.1.1
        peer 10.0.0.2 { as: 65002 local-ip: 10.0.0.1 }
        network 128.16.0.0/16 { }
    }
    rip {
        interface 10.0.0.1 { neighbor: 10.0.0.2 }
    }
}
|}
  with
  | Ok () -> ()
  | Error problems -> Alcotest.failf "valid config rejected: %s" (List.hd problems)

let expect_problem s fragment =
  match validate s with
  | Ok () -> Alcotest.failf "accepted config that should fail on %S" fragment
  | Error problems ->
    if
      not
        (List.exists
           (fun p -> Astring.String.is_infix ~affix:fragment p)
           problems)
    then
      Alcotest.failf "no problem mentions %S; got: %s" fragment
        (String.concat " | " problems)

let test_validate_catches () =
  expect_problem "frobnicator { }" "unknown section";
  expect_problem
    "protocols { bgp { local-as: 65001 bgp-id: 1.1.1.1 color: red } }"
    "unknown attribute";
  expect_problem "protocols { bgp { bgp-id: 1.1.1.1 } }" "local-as";
  expect_problem
    "protocols { bgp { local-as: banana bgp-id: 1.1.1.1 } }" "valid u32";
  expect_problem
    "protocols { bgp { local-as: 1 bgp-id: 1.1.1.1 peer nonsense { as: 2 local-ip: 10.0.0.1 } } }"
    "valid ipv4";
  expect_problem
    "protocols { static { route 10.0.0.0/8 { nexthop: 192.0.2.1 } } static { } }"
    "only once";
  expect_problem "interfaces { interface eth0 { } }" "address"

(* --- booting routers -------------------------------------------------------- *)

let test_boot_rejects_bad_config () =
  (match Rtrmgr.boot ~config:"nonsense {" () with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "booted from a syntax error");
  match Rtrmgr.boot ~config:"frobnicator { }" () with
  | Error problems ->
    check Alcotest.bool "mentions the unknown section" true
      (List.exists
         (fun p -> Astring.String.is_infix ~affix:"frobnicator" p)
         problems)
  | Ok _ -> Alcotest.fail "booted from an invalid config"

let test_boot_static_router () =
  let config = {|
interfaces {
    interface eth0 { address: 10.0.0.1 }
}
protocols {
    static {
        route 172.16.0.0/12 { nexthop: 10.0.0.254 }
    }
}
|} in
  match Rtrmgr.boot ~config () with
  | Error problems -> Alcotest.fail (String.concat "; " problems)
  | Ok router ->
    let loop = Rtrmgr.eventloop router in
    Eventloop.run_until_idle loop;
    (match Rib.lookup_best (Rtrmgr.rib router) (addr "172.16.1.1") with
     | Some r -> check Alcotest.string "static route" "static" r.Rib_route.protocol
     | None -> Alcotest.fail "static route missing");
    (* connected route for the interface *)
    (match Rib.lookup_best (Rtrmgr.rib router) (addr "10.0.0.9") with
     | Some r -> check Alcotest.string "connected" "connected" r.Rib_route.protocol
     | None -> Alcotest.fail "connected route missing");
    (* FIB has both *)
    check Alcotest.int "fib" 2 (Fib.size (Fea.fib (Rtrmgr.fea router)));
    let shown = Rtrmgr.show_routes router in
    check Alcotest.bool "show_routes mentions the prefix" true
      (Astring.String.is_infix ~affix:"172.16.0.0/12" shown);
    Rtrmgr.shutdown router

let bgp_pair_configs =
  ( {|
interfaces {
    interface eth0 { address: 10.0.0.1 }
}
protocols {
    bgp {
        local-as: 65001
        bgp-id: 1.1.1.1
        network 128.16.0.0/16 { }
        network 128.17.0.0/16 { }
        peer 10.0.0.2 {
            as: 65002
            local-ip: 10.0.0.1
        }
    }
}
|},
    {|
interfaces {
    interface eth0 { address: 10.0.0.2 }
}
protocols {
    bgp {
        local-as: 65002
        bgp-id: 2.2.2.2
        peer 10.0.0.1 {
            as: 65001
            local-ip: 10.0.0.2
            import-policy: "load network; push.net 128.17.0.0/16; within; jfalse keep; reject; label keep"
        }
    }
}
|} )

let test_boot_bgp_pair_from_config () =
  let cfg_a, cfg_b = bgp_pair_configs in
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let boot config =
    match Rtrmgr.boot ~loop ~netsim ~config () with
    | Ok r -> r
    | Error problems -> Alcotest.fail (String.concat "; " problems)
  in
  let ra = boot cfg_a in
  let rb = boot cfg_b in
  Eventloop.run_until_time loop 10.0;
  let bgp_b = Option.get (Rtrmgr.bgp rb) in
  (* b's import policy rejects 128.17/16, accepts 128.16/16. *)
  check Alcotest.int "one route at b" 1 (Bgp_process.route_count bgp_b);
  (match Rib.lookup_best (Rtrmgr.rib rb) (addr "128.16.1.1") with
   | Some r -> check Alcotest.string "ebgp in rib" "ebgp" r.Rib_route.protocol
   | None -> Alcotest.fail "128.16/16 not in b's RIB");
  check Alcotest.bool "128.17/16 filtered" true
    (Rib.lookup_best (Rtrmgr.rib rb) (addr "128.17.1.1") = None);
  (* show commands *)
  check Alcotest.bool "peer shown Established" true
    (Astring.String.is_infix ~affix:"Established" (Rtrmgr.show_bgp_peers rb));
  check Alcotest.bool "fib shown" true
    (Astring.String.is_infix ~affix:"128.16.0.0/16" (Rtrmgr.show_fib rb));
  (* The queue pane names the staging queues and both fanout lanes,
     and everything has drained at quiescence. *)
  let queues = Rtrmgr.show_queues rb in
  List.iter
    (fun row ->
       check Alcotest.bool (row ^ " shown") true
         (Astring.String.is_infix ~affix:row queues))
    [ "bgp.inbound"; "bgp.fanout.lane.urgent"; "bgp.fanout.lane.bulk";
      "rib.fea_q" ];
  List.iteri
    (fun i line ->
       if i > 0 && line <> "" then
         match List.rev (String.split_on_char ' ' line) with
         | depth :: _ ->
           check Alcotest.string
             (Printf.sprintf "queue row %d drained" i) "0" depth
         | [] -> ())
    (String.split_on_char '\n' queues);
  Rtrmgr.shutdown ra;
  Rtrmgr.shutdown rb

let test_boot_rip_pair_from_config () =
  let mk ifaddr nbr extra = Printf.sprintf {|
interfaces {
    interface eth0 { address: %s }
}
protocols {
    rip {
        interface %s { neighbor: %s }
%s
    }
}
|} ifaddr ifaddr nbr extra in
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let boot config =
    match Rtrmgr.boot ~loop ~netsim ~config () with
    | Ok r -> r
    | Error problems -> Alcotest.fail (String.concat "; " problems)
  in
  let ra =
    boot (mk "10.0.0.1" "10.0.0.2" "        route 203.0.113.0/24 { metric: 2 }")
  in
  let rb = boot (mk "10.0.0.2" "10.0.0.1" "") in
  Eventloop.run_until_time loop 40.0;
  let rip_b = Option.get (Rtrmgr.rip rb) in
  (match Rip_process.lookup rip_b (net "203.0.113.0/24") with
   | Some (m, _) -> check Alcotest.int "metric 3 at b" 3 m
   | None -> Alcotest.fail "rip route not learned");
  check Alcotest.bool "show_rip" true
    (Astring.String.is_infix ~affix:"203.0.113.0/24" (Rtrmgr.show_rip rb));
  Rtrmgr.shutdown ra;
  Rtrmgr.shutdown rb

(* Every protocol reaches the RIB through one Rib_client, whose rebirth
   replay is counted in <class>.rib_resync.replayed. Router a learns
   two BGP routes, one RIP route and one OSPF route from b; a kill and
   restart of a's RIB must raise each of a's counters by exactly the
   routes that protocol holds, and the reborn RIB must hold them. *)
let test_rib_rebirth_resync_counters () =
  let mk ~me ~peer ~as_ ~peer_as ~id ~peer_id extra_bgp extra_rip extra_ospf =
    Printf.sprintf {|
interfaces {
    interface eth0 { address: %s }
}
protocols {
    bgp {
        local-as: %d
        bgp-id: %s
%s
        peer %s {
            as: %d
            local-ip: %s
        }
    }
    rip {
        interface %s { neighbor: %s }
%s
    }
    ospf {
        router-id: %s
        interface %s {
            neighbor %s { router-id: %s }
        }
%s
    }
}
|} me as_ id extra_bgp peer peer_as me me peer extra_rip id me peer peer_id
      extra_ospf
  in
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let boot ns config =
    Telemetry.with_namespace ns (fun () ->
        match Rtrmgr.boot ~loop ~netsim ~config () with
        | Ok r -> r
        | Error problems -> Alcotest.fail (String.concat "; " problems))
  in
  let ra =
    boot "a."
      (mk ~me:"10.0.0.1" ~peer:"10.0.0.2" ~as_:65001 ~peer_as:65002
         ~id:"1.1.1.1" ~peer_id:"2.2.2.2" "" "" "")
  in
  let rb =
    boot "b."
      (mk ~me:"10.0.0.2" ~peer:"10.0.0.1" ~as_:65002 ~peer_as:65001
         ~id:"2.2.2.2" ~peer_id:"1.1.1.1"
         "        network 128.16.0.0/16 { }\n        network 128.17.0.0/16 { }"
         "        route 203.0.113.0/24 { metric: 2 }"
         "        stub 198.51.100.0/24 { }")
  in
  Eventloop.run_until_time loop 60.0;
  let bgp = Option.get (Rtrmgr.bgp ra)
  and rip = Option.get (Rtrmgr.rip ra)
  and ospf = Option.get (Rtrmgr.ospf ra) in
  (* What each protocol re-announces: BGP its peer-learned winners,
     RIP its learned routes, OSPF its installed SPF routes. *)
  let held =
    [ ( "bgp", "ebgp",
        Bgp_process.fold_winners bgp
          (fun r n -> if r.Bgp_types.peer_id <> 0 then n + 1 else n)
          0 );
      ( "rip", "rip",
        List.length
          (List.filter
             (fun (_, _, nh) -> not (Ipv4.equal nh Ipv4.zero))
             (Rip_process.routes rip)) );
      ("ospf", "ospf", List.length (Ospf_process.route_table ospf)) ]
  in
  List.iter2
    (fun (cls, _, n) expected ->
       check Alcotest.int (cls ^ " routes learned from b") expected n)
    held [ 2; 1; 1 ];
  let replayed cls =
    match Telemetry.find_metric ("a." ^ cls ^ ".rib_resync.replayed") with
    | Some (Telemetry.Counter c) -> Telemetry.counter_value c
    | _ -> Alcotest.failf "no %s.rib_resync.replayed counter" cls
  in
  let before = List.map (fun (cls, _, _) -> replayed cls) held in
  Rtrmgr.kill_component ra `Rib;
  Eventloop.run_until_time loop 65.0;
  Rtrmgr.restart_component ra `Rib;
  Eventloop.run_until_time loop 90.0;
  List.iter2
    (fun (cls, protocol, n) b ->
       check Alcotest.int (cls ^ " counter rose by its replay") n
         (replayed cls - b);
       check Alcotest.int (protocol ^ " routes in the reborn RIB") n
         (Rib.origin_route_count (Rtrmgr.rib ra) protocol))
    held before;
  Rtrmgr.shutdown ra;
  Rtrmgr.shutdown rb

let test_config_text_roundtrip () =
  let cfg_a, _ = bgp_pair_configs in
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  match Rtrmgr.boot ~loop ~netsim ~config:cfg_a () with
  | Error problems -> Alcotest.fail (String.concat "; " problems)
  | Ok r ->
    let rendered = Rtrmgr.config_text r in
    (match Config_tree.parse rendered with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "rendered config does not re-parse: %s" e);
    Rtrmgr.shutdown r

let () =
  Alcotest.run "xorp_rtrmgr"
    [
      ( "config_tree",
        [
          Alcotest.test_case "parse basics" `Quick test_parse_basic;
          Alcotest.test_case "repeated sections" `Quick
            test_parse_multiple_same_name;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "render roundtrip" `Quick test_render_roundtrip;
          QCheck_alcotest.to_alcotest prop_render_parse_fixpoint;
        ] );
      ( "template",
        [
          Alcotest.test_case "valid config" `Quick test_validate_good;
          Alcotest.test_case "catches mistakes" `Quick test_validate_catches;
        ] );
      ( "boot",
        [
          Alcotest.test_case "rejects bad config" `Quick
            test_boot_rejects_bad_config;
          Alcotest.test_case "static router" `Quick test_boot_static_router;
          Alcotest.test_case "bgp pair from config" `Quick
            test_boot_bgp_pair_from_config;
          Alcotest.test_case "rip pair from config" `Quick
            test_boot_rip_pair_from_config;
          Alcotest.test_case "rib rebirth resync counters" `Quick
            test_rib_rebirth_resync_counters;
          Alcotest.test_case "config text roundtrip" `Quick
            test_config_text_roundtrip;
        ] );
    ]
