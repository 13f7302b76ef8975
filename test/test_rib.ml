(* Tests for the staged RIB: administrative-distance arbitration across
   merge stages, ExtInt nexthop gating, interest registration with
   invalidation, redistribution, background flush on protocol death,
   and stream consistency (§5.1's rules, checked by a model sink). *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* A consistency-checking subscriber: maintains a model of the winner
   stream and fails on rule violations (delete without add, double
   add). This is our equivalent of BGP's checking cache stage. *)
type model = {
  routes : (Ipv4net.t, Rib_route.t) Hashtbl.t;
  mutable adds : int;
  mutable deletes : int;
}

let attach_model rib =
  let m = { routes = Hashtbl.create 64; adds = 0; deletes = 0 } in
  Rib.subscribe_redist rib ~name:"model" ~policy:Policy.always_accept
    ~on_add:(fun r ->
        m.adds <- m.adds + 1;
        if Hashtbl.mem m.routes r.Rib_route.net then
          Alcotest.failf "double add for %s" (Ipv4net.to_string r.net);
        Hashtbl.replace m.routes r.net r)
    ~on_delete:(fun r ->
        m.deletes <- m.deletes + 1;
        match Hashtbl.find_opt m.routes r.Rib_route.net with
        | None ->
          Alcotest.failf "delete without add for %s" (Ipv4net.to_string r.net)
        | Some cur ->
          if not (Rib_route.equal cur r) then
            Alcotest.failf "delete of stale route for %s"
              (Ipv4net.to_string r.net);
          Hashtbl.remove m.routes r.net);
  m

let setup ?(send_to_fea = true) () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  let rib = Rib.create ~send_to_fea finder loop () in
  (loop, finder, fea, rib)

let add rib ~protocol ?(metric = 0) n nh =
  match Rib.add_route rib ~protocol ~net:(net n) ~nexthop:(addr nh) ~metric () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let del rib ~protocol n =
  match Rib.delete_route rib ~protocol ~net:(net n) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let winner_protocol rib a =
  match Rib.lookup_best rib (addr a) with
  | Some r -> r.Rib_route.protocol
  | None -> "none"

(* --- basic flow ------------------------------------------------------ *)

let test_route_reaches_fea () =
  let loop, _, fea, rib = setup () in
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "installed in FIB" 1 (Fib.size (Fea.fib fea));
  (match Fib.lookup (Fea.fib fea) (addr "10.1.2.3") with
   | Some e -> check Alcotest.string "protocol recorded" "static" e.Fib.protocol
   | None -> Alcotest.fail "no FIB entry");
  del rib ~protocol:"static" "10.0.0.0/8";
  Eventloop.run loop;
  check Alcotest.int "removed from FIB" 0 (Fib.size (Fea.fib fea))

let test_admin_distance_arbitration () =
  let loop, _, fea, rib = setup () in
  let m = attach_model rib in
  add rib ~protocol:"rip" ~metric:3 "10.0.0.0/8" "192.0.2.120";
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.string "static (1) beats rip (120)" "static"
    (winner_protocol rib "10.1.1.1");
  (match Fib.lookup (Fea.fib fea) (addr "10.1.1.1") with
   | Some e -> check Alcotest.string "fib agrees" "static" e.Fib.protocol
   | None -> Alcotest.fail "no FIB entry");
  (* Withdraw the winner; rip takes over. *)
  del rib ~protocol:"static" "10.0.0.0/8";
  Eventloop.run loop;
  check Alcotest.string "rip takes over" "rip" (winner_protocol rib "10.1.1.1");
  (match Fib.lookup (Fea.fib fea) (addr "10.1.1.1") with
   | Some e -> check Alcotest.string "fib switched" "rip" e.Fib.protocol
   | None -> Alcotest.fail "no FIB entry after failover");
  (* Withdraw the loser first in a fresh conflict: no churn at all. *)
  add rib ~protocol:"connected" "20.0.0.0/8" "0.0.0.0";
  add rib ~protocol:"rip" "20.0.0.0/8" "192.0.2.120";
  let adds_before = m.adds in
  del rib ~protocol:"rip" "20.0.0.0/8";
  Eventloop.run loop;
  check Alcotest.int "shadowed withdrawal is silent" adds_before m.adds;
  check Alcotest.string "connected still wins" "connected"
    (winner_protocol rib "20.0.0.1")

let test_same_protocol_replace () =
  let loop, _, _, rib = setup () in
  let m = attach_model rib in
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.9";
  Eventloop.run loop;
  (match Rib.lookup_best rib (addr "10.0.0.1") with
   | Some r ->
     check Alcotest.string "new nexthop" "192.0.2.9" (Ipv4.to_string r.nexthop)
   | None -> Alcotest.fail "no route");
  check Alcotest.int "model consistent" 1 (Hashtbl.length m.routes)

(* --- changes that leave a table as it was ------------------------------ *)

(* An equal re-origination reaches ExtInt as a replace whose winner
   equals the propagated one, and stops there. *)
let test_equal_originate_is_no_change () =
  let loop, _, fea, rib = setup () in
  let m = attach_model rib in
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  Eventloop.run loop;
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "one add downstream" 1 m.adds;
  check Alcotest.int "no delete downstream" 0 m.deletes;
  check Alcotest.int "one FIB install" 1 (Fea.routes_installed fea)

(* The origin table stores the current generation on every originate,
   so a running clear leaves an equal re-originated route alone. *)
let test_equal_originate_survives_clear () =
  let loop, _, fea, rib = setup () in
  for i = 0 to 999 do
    add rib ~protocol:"rip"
      (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))
      "192.0.2.120"
  done;
  Eventloop.run loop;
  let m = attach_model rib in
  let adds = m.adds and installed = Fea.routes_installed fea in
  Rib.flush_protocol rib "rip";
  add rib ~protocol:"rip" "10.2.100.0/24" "192.0.2.120";
  Eventloop.run loop;
  check Alcotest.int "the clear ended with one route left" 1
    (Rib.origin_route_count rib "rip");
  check Alcotest.bool "the re-originated route is still a winner" true
    (Rib.lookup_best rib (addr "10.2.100.1") <> None);
  check Alcotest.bool "and still in the FIB" true
    (Fib.get (Fea.fib fea) (net "10.2.100.0/24") <> None);
  check Alcotest.int "no add sent for it" adds m.adds;
  check Alcotest.int "every other route deleted" 999 m.deletes;
  check Alcotest.int "no FIB install for it" installed
    (Fea.routes_installed fea)

let test_more_specific_coexists () =
  let loop, _, fea, rib = setup () in
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  add rib ~protocol:"rip" "10.1.0.0/16" "192.0.2.120";
  Eventloop.run loop;
  check Alcotest.int "both installed" 2 (Fib.size (Fea.fib fea));
  check Alcotest.string "specific wins inside" "rip"
    (winner_protocol rib "10.1.2.3");
  check Alcotest.string "aggregate outside" "static"
    (winner_protocol rib "10.2.0.1")

(* --- ExtInt nexthop gating ------------------------------------------- *)

let test_bgp_nexthop_gating () =
  let loop, _, fea, rib = setup () in
  let m = attach_model rib in
  (* EBGP route with an unresolvable nexthop: held back. *)
  add rib ~protocol:"ebgp" "128.16.0.0/16" "10.9.9.9";
  Eventloop.run loop;
  check Alcotest.string "not propagated" "none" (winner_protocol rib "128.16.0.1");
  check Alcotest.int "fib empty" 0 (Fib.size (Fea.fib fea));
  (* An IGP route to the nexthop appears: the BGP route goes live. *)
  add rib ~protocol:"rip" "10.9.0.0/16" "192.0.2.120";
  Eventloop.run loop;
  check Alcotest.string "bgp now live" "ebgp" (winner_protocol rib "128.16.0.1");
  check Alcotest.int "both in fib" 2 (Fib.size (Fea.fib fea));
  (* The IGP route goes away: the BGP route is withdrawn again. *)
  del rib ~protocol:"rip" "10.9.0.0/16";
  Eventloop.run loop;
  check Alcotest.string "bgp withdrawn" "none" (winner_protocol rib "128.16.0.1");
  check Alcotest.int "fib empty again" 0 (Fib.size (Fea.fib fea));
  check Alcotest.int "stream stayed consistent" 0 (Hashtbl.length m.routes)

let test_ebgp_vs_igp_same_prefix () =
  let loop, _, _, rib = setup () in
  (* Make the BGP nexthop resolvable. *)
  add rib ~protocol:"connected" "10.0.0.0/24" "0.0.0.0";
  add rib ~protocol:"ebgp" "128.16.0.0/16" "10.0.0.7";
  add rib ~protocol:"rip" "128.16.0.0/16" "10.0.0.120";
  Eventloop.run loop;
  check Alcotest.string "ebgp (20) beats rip (120)" "ebgp"
    (winner_protocol rib "128.16.0.1");
  del rib ~protocol:"ebgp" "128.16.0.0/16";
  Eventloop.run loop;
  check Alcotest.string "rip reinstated" "rip" (winner_protocol rib "128.16.0.1")

let test_ibgp_loses_to_igp () =
  let loop, _, _, rib = setup () in
  add rib ~protocol:"connected" "10.0.0.0/24" "0.0.0.0";
  add rib ~protocol:"ibgp" "128.16.0.0/16" "10.0.0.7";
  add rib ~protocol:"ospf" "128.16.0.0/16" "10.0.0.110";
  Eventloop.run loop;
  check Alcotest.string "ospf (110) beats ibgp (200)" "ospf"
    (winner_protocol rib "128.16.0.1")

(* --- interest registration (§5.2.1) ---------------------------------- *)

let fig8_load rib =
  add rib ~protocol:"connected" "192.0.2.0/24" "0.0.0.0";
  List.iter
    (fun n -> add rib ~protocol:"static" n "192.0.2.1")
    [ "128.16.0.0/16"; "128.16.0.0/18"; "128.16.128.0/17"; "128.16.192.0/18" ]

let test_register_interest_fig8 () =
  let loop, _, _, rib = setup () in
  fig8_load rib;
  Eventloop.run loop;
  let a1 = Rib.register_interest rib ~client:"bgp-1" (addr "128.16.32.1") in
  check Alcotest.string "matched /18" "128.16.0.0/18"
    (match a1.Register_table.matched with
     | Some r -> Ipv4net.to_string r.Rib_route.net
     | None -> "none");
  check Alcotest.string "valid /18" "128.16.0.0/18"
    (Ipv4net.to_string a1.Register_table.valid_subnet);
  let a2 = Rib.register_interest rib ~client:"bgp-1" (addr "128.16.160.1") in
  check Alcotest.string "matched /17" "128.16.128.0/17"
    (match a2.Register_table.matched with
     | Some r -> Ipv4net.to_string r.Rib_route.net
     | None -> "none");
  check Alcotest.string "valid narrowed to /18" "128.16.128.0/18"
    (Ipv4net.to_string a2.Register_table.valid_subnet)

let test_interest_invalidation () =
  let loop, finder, _, rib = setup () in
  (* A fake BGP that records invalidation callbacks. *)
  let invalidated = ref [] in
  let client = Xrl_router.create finder loop ~class_name:"fakebgp" () in
  Xrl_router.add_handler client ~interface:"rib_client"
    ~method_name:"route_info_invalid" (fun args reply ->
        invalidated :=
          Ipv4net.to_string (Xrl_atom.get_ipv4net args "valid") :: !invalidated;
        reply Xrl_error.Ok_xrl []);
  fig8_load rib;
  Eventloop.run loop;
  let client_name = Xrl_router.instance_name client in
  let a =
    Rib.register_interest rib ~client:client_name (addr "128.16.160.1")
  in
  check Alcotest.string "valid subnet" "128.16.128.0/18"
    (Ipv4net.to_string a.Register_table.valid_subnet);
  (* An unrelated change does not invalidate. *)
  add rib ~protocol:"static" "20.0.0.0/8" "192.0.2.1";
  Eventloop.run loop;
  check (Alcotest.list Alcotest.string) "no invalidation" [] !invalidated;
  (* A more-specific route inside the valid range invalidates. *)
  add rib ~protocol:"static" "128.16.130.0/24" "192.0.2.1";
  Eventloop.run loop;
  check (Alcotest.list Alcotest.string) "one invalidation" [ "128.16.128.0/18" ]
    !invalidated;
  (* The registration is gone: another change is silent. *)
  add rib ~protocol:"static" "128.16.131.0/24" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "registration dropped after notice" 1
    (List.length !invalidated);
  (* Re-register: the valid range now reflects the /24. *)
  let a2 =
    Rib.register_interest rib ~client:client_name (addr "128.16.160.1")
  in
  check Alcotest.bool "narrower than before" true
    (Ipv4net.prefix_len a2.Register_table.valid_subnet >= 18)

let test_deregister () =
  let loop, _, _, rib = setup () in
  fig8_load rib;
  Eventloop.run loop;
  let a = Rib.register_interest rib ~client:"c1" (addr "128.16.32.1") in
  check Alcotest.bool "dereg works" true
    (Rib.deregister_interest rib ~client:"c1" a.Register_table.valid_subnet);
  check Alcotest.bool "second dereg fails" false
    (Rib.deregister_interest rib ~client:"c1" a.Register_table.valid_subnet);
  (* No invalidation after deregistration. *)
  add rib ~protocol:"static" "128.16.1.0/24" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "none sent" 0 (Rib.invalidations_sent rib)

(* --- redistribution --------------------------------------------------- *)

let test_redist_with_policy () =
  let loop, _, _, rib = setup () in
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  add rib ~protocol:"static" "172.16.0.0/12" "192.0.2.1";
  Eventloop.run loop;
  (* Only routes within 10/8; bump metric to 5. *)
  let policy =
    Result.get_ok
      (Policy.compile
         {|
load network
push.net 10.0.0.0/8
within
jfalse out
push.u32 5
store metric
accept
label out
reject
|})
  in
  let got_adds = ref [] and got_dels = ref [] in
  Rib.subscribe_redist rib ~name:"to-rip" ~policy
    ~on_add:(fun r ->
        got_adds := (Ipv4net.to_string r.Rib_route.net, r.metric) :: !got_adds)
    ~on_delete:(fun r ->
        got_dels := Ipv4net.to_string r.Rib_route.net :: !got_dels);
  (* Subscription dumps the existing table through the filter. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "dump filtered and modified"
    [ ("10.0.0.0/8", 5) ]
    !got_adds;
  (* Subsequent updates flow through too. *)
  add rib ~protocol:"static" "10.3.0.0/16" "192.0.2.1";
  del rib ~protocol:"static" "10.0.0.0/8";
  add rib ~protocol:"static" "192.168.0.0/16" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "one more add" 2 (List.length !got_adds);
  check (Alcotest.list Alcotest.string) "one delete" [ "10.0.0.0/8" ] !got_dels;
  Rib.unsubscribe_redist rib ~name:"to-rip";
  add rib ~protocol:"static" "10.4.0.0/16" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "silent after unsubscribe" 2 (List.length !got_adds)

(* --- protocol death and background flush ------------------------------ *)

let test_flush_on_protocol_death () =
  let loop, finder, fea, rib = setup () in
  (* A fake RIP process registers, originates routes, and dies. *)
  let rip = Xrl_router.create finder loop ~class_name:"rip" () in
  for i = 0 to 99 do
    add rib ~protocol:"rip" (Printf.sprintf "10.%d.0.0/16" i) "192.0.2.120"
  done;
  Eventloop.run loop;
  check Alcotest.int "all in FIB" 100 (Fib.size (Fea.fib fea));
  check Alcotest.int "origin holds them" 100 (Rib.origin_route_count rib "rip");
  Xrl_router.shutdown rip;
  (* The flush is a background task: it runs as the loop idles. *)
  Eventloop.run loop;
  check Alcotest.int "origin flushed" 0 (Rib.origin_route_count rib "rip");
  check Alcotest.int "FIB flushed" 0 (Fib.size (Fea.fib fea))

let test_flush_interleaves_with_events () =
  (* While a big flush proceeds, freshly originated routes from another
     protocol still go through promptly. *)
  let loop, _, _, rib = setup ~send_to_fea:false () in
  for i = 0 to 999 do
    add rib ~protocol:"rip"
      (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))
      "192.0.2.120"
  done;
  Eventloop.run_until_idle loop;
  Rib.flush_protocol rib "rip";
  (* Immediately originate a static route; it must win the race with
     the 1000-route background deletion. *)
  add rib ~protocol:"static" "172.16.0.0/12" "192.0.2.1";
  let seen_at = ref (-1) in
  ignore
    (Eventloop.after loop 0.0 (fun () ->
         if Rib.lookup_best rib (addr "172.16.0.1") <> None then
           seen_at := Rib.origin_route_count rib "rip"));
  Eventloop.run loop;
  check Alcotest.bool "static visible before flush finished" true (!seen_at > 0);
  check Alcotest.int "flush completed" 0 (Rib.origin_route_count rib "rip")

(* --- XRL interface ----------------------------------------------------- *)

let test_xrl_interface () =
  let loop, finder, _, rib = setup () in
  ignore rib;
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let call xrl =
    let err, args = Xrl_router.call_blocking caller xrl in
    if not (Xrl_error.is_ok err) then
      Alcotest.failf "XRL failed: %s" (Xrl_error.to_string err);
    args
  in
  ignore
    (call
       (Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_route"
          [ Xrl_atom.txt "protocol" "static";
            Xrl_atom.ipv4net "net" (net "10.0.0.0/8");
            Xrl_atom.ipv4 "nexthop" (addr "192.0.2.1");
            Xrl_atom.u32 "metric" 1 ]));
  let args =
    call
      (Xrl.make ~target:"rib" ~interface:"rib"
         ~method_name:"lookup_route_by_dest"
         [ Xrl_atom.ipv4 "addr" (addr "10.5.5.5") ])
  in
  check Alcotest.string "protocol" "static" (Xrl_atom.get_txt args "protocol");
  let args =
    call (Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"get_route_count" [])
  in
  check Alcotest.int "count" 1 (Xrl_atom.get_u32 args "count");
  (* register_interest over XRL *)
  let args =
    call
      (Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"register_interest"
         [ Xrl_atom.txt "client" (Xrl_router.instance_name caller);
           Xrl_atom.ipv4 "addr" (addr "10.1.2.3") ])
  in
  check Alcotest.bool "resolves" true (Xrl_atom.get_bool args "resolves");
  check Alcotest.string "matched net" "10.0.0.0/8"
    (Ipv4net.to_string (Xrl_atom.get_ipv4net args "net"));
  (* unknown protocol errors *)
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_route"
         [ Xrl_atom.txt "protocol" "ghostproto";
           Xrl_atom.ipv4net "net" (net "1.0.0.0/8");
           Xrl_atom.ipv4 "nexthop" (addr "192.0.2.1") ])
  in
  check Alcotest.bool "unknown protocol rejected" false (Xrl_error.is_ok err)

(* --- profile points ---------------------------------------------------- *)

let test_profile_pipeline_order () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  ignore (Fea.create finder loop ());
  let rib = Rib.create finder loop () in
  Telemetry.reset ();
  Telemetry.Profile.enable_all ();
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  Eventloop.run loop;
  Telemetry.Profile.disable_all ();
  let points =
    List.map
      (fun (r : Telemetry.Profile.record) -> r.point)
      (Telemetry.Profile.records ())
  in
  check (Alcotest.list Alcotest.string) "pipeline order"
    [ Rib.pp_queued_fea; Rib.pp_sent_fea; Fea.pp_arrived; Fea.pp_kernel ]
    points

(* --- bulk FEA transfer ------------------------------------------------- *)

let test_bulk_fea_install () =
  (* Many routes originated within one event-loop turn must reach the
     FEA — via the bulk add_routes4 path — and land in the FIB exactly
     as if they had been sent one XRL each. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  Telemetry.reset ();
  Telemetry.Profile.enable_all ();
  let n = 64 in
  for i = 0 to n - 1 do
    add rib ~protocol:"static"
      (Printf.sprintf "10.%d.%d.0/24" (i / 256) (i mod 256))
      "192.0.2.1"
  done;
  Eventloop.run loop;
  check Alcotest.int "all installed" n (Fib.size (Fea.fib fea));
  check Alcotest.int "installed counter" n (Fea.routes_installed fea);
  (* Per-route profile points survive bulk transfer: every route shows
     the full queued -> sent -> arrived -> kernel pipeline. *)
  let count point =
    List.length
      (List.filter
         (fun (r : Telemetry.Profile.record) -> r.point = point)
         (Telemetry.Profile.records ()))
  in
  check Alcotest.int "queued points" n (count Rib.pp_queued_fea);
  check Alcotest.int "sent points" n (count Rib.pp_sent_fea);
  check Alcotest.int "arrived points" n (count Fea.pp_arrived);
  check Alcotest.int "kernel points" n (count Fea.pp_kernel);
  (* And bulk deletion drains the FIB the same way. *)
  for i = 0 to n - 1 do
    del rib ~protocol:"static"
      (Printf.sprintf "10.%d.%d.0/24" (i / 256) (i mod 256))
  done;
  Eventloop.run loop;
  Telemetry.Profile.disable_all ();
  check Alcotest.int "all removed" 0 (Fib.size (Fea.fib fea))

let test_bulk_fea_preserves_add_delete_order () =
  (* An add/delete alternation on the same prefix within one turn must
     reach the FIB in sequence (runs are flushed in order). *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  add rib ~protocol:"static" "10.1.0.0/16" "192.0.2.1";
  del rib ~protocol:"static" "10.0.0.0/8";
  add rib ~protocol:"static" "10.2.0.0/16" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "net FIB size" 2 (Fib.size (Fea.fib fea));
  check Alcotest.bool "10.0.0.0/8 gone" true
    (Fib.lookup (Fea.fib fea) (addr "10.200.0.1") = None)

(* --- FEA lanes ---------------------------------------------------------- *)

(* The peak urgent and bulk lengths of the RIB's FEA queue while [f]'s
   work runs to idle. The gauges are read between loop turns, and a
   flush runs the turn after the changes it sends were queued. *)
let fea_lane_peaks loop f =
  Telemetry.set_enabled true;
  let read name =
    int_of_float (Telemetry.gauge_value (Telemetry.gauge name))
  in
  let urgent = ref 0 and bulk = ref 0 in
  f ();
  Eventloop.run loop ~until:(fun () ->
      urgent := max !urgent (read "rib.fea_q.urgent");
      bulk := max !bulk (read "rib.fea_q.bulk");
      false);
  (!urgent, !bulk)

let lanes = Alcotest.(pair int int)

let test_packed_runs_state_their_lane () =
  let loop, finder, fea, _ = setup () in
  let caller = Xrl_router.create finder loop ~class_name:"test" () in
  let replies = ref [] in
  let send method_name args () =
    Xrl_router.send caller
      (Xrl.make ~target:"rib" ~interface:"rib" ~method_name args)
      (fun err _ -> replies := err :: !replies)
  in
  let routes nets =
    Xrl_atom.binary "routes"
      (Route_pack.pack_adds
         (List.map
            (fun n ->
               { Route_pack.net = net n; nexthop = addr "192.0.2.1";
                 ifname = ""; protocol = "static"; metric = 0 })
            nets))
  in
  let urgent b = Xrl_atom.boolean "urgent" b in
  check lanes "an urgent run queues urgent" (2, 0)
    (fea_lane_peaks loop
       (send "add_routes4" [ urgent true; routes [ "10.1.0.0/16"; "10.2.0.0/16" ] ]));
  check lanes "a bulk run queues bulk" (0, 2)
    (fea_lane_peaks loop
       (send "add_routes4" [ urgent false; routes [ "10.3.0.0/16"; "10.4.0.0/16" ] ]));
  check lanes "so does a bulk delete" (0, 2)
    (fea_lane_peaks loop
       (send "delete_routes4"
          [ urgent false; Xrl_atom.txt "protocol" "static";
            Xrl_atom.binary "routes"
              (Route_pack.pack_deletes [ net "10.1.0.0/16"; net "10.3.0.0/16" ]) ]));
  check lanes "the per-route add stays urgent" (1, 0)
    (fea_lane_peaks loop
       (send "add_route"
          [ Xrl_atom.txt "protocol" "static";
            Xrl_atom.ipv4net "net" (net "10.5.0.0/16");
            Xrl_atom.ipv4 "nexthop" (addr "192.0.2.1") ]));
  check Alcotest.int "every reply ok" 4
    (List.length (List.filter Xrl_error.is_ok !replies));
  (* The lane is required: a run that does not state it is refused
     whole. *)
  send "add_routes4" [ routes [ "10.6.0.0/16" ] ] ();
  Eventloop.run loop;
  (match !replies with
   | Xrl_error.Bad_args _ :: _ -> ()
   | e :: _ -> Alcotest.failf "expected Bad_args, got %s" (Xrl_error.to_string e)
   | [] -> Alcotest.fail "no reply");
  check Alcotest.int "FIB" 3 (Fib.size (Fea.fib fea))

(* A protocol's death flushes its routes from a background task, and
   their FIB deletes are bulk work, like BGP's deletion stage: they must
   not compete with flaps in the urgent lane. *)
let test_gradual_flush_queues_bulk () =
  let loop, _, fea, rib = setup () in
  for i = 0 to 9 do
    add rib ~protocol:"rip" ~metric:1 (Printf.sprintf "10.%d.0.0/16" i)
      "192.0.2.1"
  done;
  Eventloop.run loop;
  check Alcotest.int "installed" 10 (Fib.size (Fea.fib fea));
  let urgent, bulk =
    fea_lane_peaks loop (fun () -> Rib.flush_protocol rib "rip")
  in
  check Alcotest.int "no urgent deletes" 0 urgent;
  check Alcotest.bool "bulk deletes" true (bulk > 0);
  check Alcotest.int "FIB emptied" 0 (Fib.size (Fea.fib fea))

(* --- RIB restart: FEA mark-and-sweep --------------------------------- *)

let test_fea_sweeps_stale_fib_after_rib_restart () =
  (* A route withdrawn while the RIB is down can never reach the reborn
     RIB — no live component remembers the withdrawal. The FEA closes
     the hole: on RIB rebirth it marks its whole FIB stale, re-installs
     unmark, and a hold timer sweeps whatever was not re-announced. *)
  let loop, finder, fea, rib = setup () in
  add rib ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  add rib ~protocol:"static" "172.16.0.0/12" "192.0.2.1";
  Eventloop.run loop;
  check Alcotest.int "both installed" 2 (Fib.size (Fea.fib fea));
  (* RIB dies. Its routes — and any withdrawal that would have come —
     are gone; the FIB still holds both entries. *)
  Rib.shutdown rib;
  Eventloop.run loop;
  check Alcotest.int "FIB survives the RIB" 2 (Fib.size (Fea.fib fea));
  (* Rebirth: only one of the two routes still exists (the other was
     "withdrawn during the outage" — nobody re-adds it). *)
  let rib' = Rib.create finder loop () in
  add rib' ~protocol:"static" "10.0.0.0/8" "192.0.2.1";
  (* Bounded run: [Eventloop.run] would fast-forward virtual time
     through the 30 s hold timer itself. *)
  Eventloop.run_until_time loop (Eventloop.now loop +. 5.0);
  (* Before the hold expires the unconfirmed entry is still there:
     graceful restart, not a flush. *)
  check Alcotest.bool "unconfirmed entry still forwarding" true
    (Fib.get (Fea.fib fea) (net "172.16.0.0/12") <> None);
  Eventloop.run_until_time loop (Eventloop.now loop +. 35.0);
  check Alcotest.bool "re-announced entry kept" true
    (Fib.get (Fea.fib fea) (net "10.0.0.0/8") <> None);
  check Alcotest.bool "unconfirmed entry swept" true
    (Fib.get (Fea.fib fea) (net "172.16.0.0/12") = None);
  check Alcotest.int "sweep counted" 1
    (Telemetry.counter_value (Telemetry.counter "fea.rib_sweep.removed"))

let () =
  Alcotest.run "xorp_rib"
    [
      ( "flow",
        [
          Alcotest.test_case "route reaches FEA" `Quick test_route_reaches_fea;
          Alcotest.test_case "admin distance arbitration" `Quick
            test_admin_distance_arbitration;
          Alcotest.test_case "same-protocol replace" `Quick
            test_same_protocol_replace;
          Alcotest.test_case "more-specific coexists" `Quick
            test_more_specific_coexists;
        ] );
      ( "unchanged",
        [
          Alcotest.test_case "equal originate sends nothing" `Quick
            test_equal_originate_is_no_change;
          Alcotest.test_case "equal originate survives a clear" `Quick
            test_equal_originate_survives_clear;
        ] );
      ( "extint",
        [
          Alcotest.test_case "nexthop gating" `Quick test_bgp_nexthop_gating;
          Alcotest.test_case "ebgp vs igp same prefix" `Quick
            test_ebgp_vs_igp_same_prefix;
          Alcotest.test_case "ibgp loses to igp" `Quick test_ibgp_loses_to_igp;
        ] );
      ( "register",
        [
          Alcotest.test_case "figure 8 answers" `Quick
            test_register_interest_fig8;
          Alcotest.test_case "invalidation" `Quick test_interest_invalidation;
          Alcotest.test_case "deregister" `Quick test_deregister;
        ] );
      ( "redist",
        [ Alcotest.test_case "policy filtering" `Quick test_redist_with_policy ] );
      ( "lifetime",
        [
          Alcotest.test_case "flush on protocol death" `Quick
            test_flush_on_protocol_death;
          Alcotest.test_case "flush interleaves with events" `Quick
            test_flush_interleaves_with_events;
          Alcotest.test_case "FEA sweeps stale FIB after RIB restart" `Quick
            test_fea_sweeps_stale_fib_after_rib_restart;
        ] );
      ( "xrl",
        [ Alcotest.test_case "rib/1.0 interface" `Quick test_xrl_interface ] );
      ( "profile",
        [
          Alcotest.test_case "pipeline point order" `Quick
            test_profile_pipeline_order;
        ] );
      ( "bulk_fea",
        [
          Alcotest.test_case "bulk install and delete" `Quick
            test_bulk_fea_install;
          Alcotest.test_case "add/delete order preserved" `Quick
            test_bulk_fea_preserves_add_delete_order;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "packed runs state their lane" `Quick
            test_packed_runs_state_their_lane;
          Alcotest.test_case "gradual flush queues bulk" `Quick
            test_gradual_flush_queues_bulk;
        ] );
    ]
