(* Tests for the Forwarding Engine Abstraction: the FIB proper, the
   XRL interface, the UDP relay, and profile points. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let setup () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let netsim = Netsim.create loop in
  let fea =
    Fea.create
      ~interfaces:[ ("eth0", addr "10.0.0.1"); ("eth1", addr "10.1.0.1") ]
      ~netsim finder loop ()
  in
  let caller = Xrl_router.create finder loop ~class_name:"test" () in
  (loop, finder, netsim, fea, caller)

let call caller xrl =
  let err, args = Xrl_router.call_blocking caller xrl in
  if not (Xrl_error.is_ok err) then
    Alcotest.failf "XRL failed: %s" (Xrl_error.to_string err);
  args

let fea_xrl method_name args =
  Xrl.make ~target:"fea" ~interface:"fea" ~method_name args

(* Packed runs, the one way routes reach the FEA. *)
let route ?(ifname = "eth0") n nh =
  { Route_pack.net = net n; nexthop = addr nh; ifname; protocol = "static";
    metric = 0 }

let add_routes4 routes =
  fea_xrl "add_routes4" [ Xrl_atom.binary "routes" (Route_pack.pack_adds routes) ]

let delete_routes4 nets =
  fea_xrl "delete_routes4"
    [ Xrl_atom.binary "routes" (Route_pack.pack_deletes (List.map net nets)) ]

(* --- Fib proper ------------------------------------------------------ *)

let test_fib_basics () =
  let fib = Fib.create () in
  Fib.add fib { Fib.net = net "10.0.0.0/8"; nexthop = addr "192.0.2.1";
                ifname = "eth0"; protocol = "static" };
  Fib.add fib { Fib.net = net "10.1.0.0/16"; nexthop = addr "192.0.2.2";
                ifname = "eth1"; protocol = "rip" };
  check Alcotest.int "size" 2 (Fib.size fib);
  (match Fib.lookup fib (addr "10.1.2.3") with
   | Some e -> check Alcotest.string "most specific wins" "eth1" e.Fib.ifname
   | None -> Alcotest.fail "no match");
  (match Fib.lookup fib (addr "10.2.0.1") with
   | Some e -> check Alcotest.string "/8 covers" "eth0" e.Fib.ifname
   | None -> Alcotest.fail "no match");
  check Alcotest.bool "lookup miss" true (Fib.lookup fib (addr "11.0.0.1") = None);
  check Alcotest.bool "delete" true (Fib.delete fib (net "10.1.0.0/16"));
  check Alcotest.bool "double delete" false (Fib.delete fib (net "10.1.0.0/16"))

(* LPM corner cases, exactly the decisions the data plane's LpmLookup
   element takes per packet. *)
let test_lpm_edge_cases () =
  let fib = Fib.create () in
  let route net_s nh ifname =
    Fib.add fib
      { Fib.net = net net_s; nexthop = addr nh; ifname; protocol = "static" }
  in
  let expect what a ifname =
    match Fib.lookup fib (addr a) with
    | Some e -> check Alcotest.string what ifname e.Fib.ifname
    | None -> Alcotest.failf "%s: unexpected miss for %s" what a
  in
  let expect_miss what a =
    check Alcotest.bool what true (Fib.lookup fib (addr a) = None)
  in
  expect_miss "empty table misses" "8.8.8.8";
  route "0.0.0.0/0" "10.0.0.254" "default";
  expect "default route catches strangers" "8.8.8.8" "default";
  expect "default route catches low space" "0.0.0.1" "default";
  route "10.0.0.0/8" "10.0.0.1" "agg8";
  route "10.1.0.0/16" "10.0.0.2" "agg16";
  route "10.1.2.0/24" "10.0.0.3" "net24";
  route "10.1.2.3/32" "10.0.0.4" "host32";
  expect "/32 host route wins" "10.1.2.3" "host32";
  expect "/24 covers its other hosts" "10.1.2.9" "net24";
  expect "/16 covers outside the /24" "10.1.9.9" "agg16";
  expect "/8 covers outside the /16" "10.9.9.9" "agg8";
  expect "outside the /8 falls to default" "11.0.0.1" "default";
  (* Deleting a covered prefix uncovers the covering one. *)
  check Alcotest.bool "delete /24" true (Fib.delete fib (net "10.1.2.0/24"));
  expect "covered hosts fall back to the /16" "10.1.2.9" "agg16";
  expect "/32 survives its covering /24" "10.1.2.3" "host32";
  check Alcotest.bool "delete default" true (Fib.delete fib (net "0.0.0.0/0"));
  expect_miss "no default: strangers miss again" "8.8.8.8"

(* --- the compiled FIB against a trie reference ----------------------- *)

let entry_of n tag =
  { Fib.net = n; nexthop = Ipv4.of_int tag; ifname = "if" ^ string_of_int tag;
    protocol = "static" }

let show_entry (e : Fib.entry) =
  Ipv4net.to_string e.Fib.net ^ " via " ^ e.Fib.ifname

let show_match = function Some e -> show_entry e | None -> "miss"

(* Entries are rebuilt from the FIB's keys, so compare every field. *)
let same_match a b =
  match a, b with
  | Some (x : Fib.entry), Some (y : Fib.entry) ->
    Ipv4net.equal x.Fib.net y.Fib.net
    && Ipv4.equal x.Fib.nexthop y.Fib.nexthop
    && String.equal x.Fib.ifname y.Fib.ifname
    && String.equal x.Fib.protocol y.Fib.protocol
  | None, None -> true
  | _ -> false

(* Does the data plane's answer [got] say what the entry [e] says? *)
let same_forward got e =
  match got, e with
  | Some r, Some (e : Fib.entry) ->
    Ipv4.equal r.Dataplane.lr_nexthop e.Fib.nexthop
    && String.equal r.Dataplane.lr_ifname e.Fib.ifname
    && r.Dataplane.lr_connected = String.equal e.Fib.protocol "connected"
  | None, None -> true
  | _ -> false

(* Everything the FIB answers, compared with a Ptree holding the same
   entries: lookup and forward of each probe address, get of each
   candidate prefix, size, and entries in (network, length) order. *)
let agree ~what fib reference ~probes ~nets =
  List.iter
    (fun a ->
       let want = Option.map snd (Ptree.longest_match reference a) in
       let got = Fib.lookup fib a in
       if not (same_match got want) then
         Alcotest.failf "%s: lookup %s gave %s, expected %s" what
           (Ipv4.to_string a) (show_match got) (show_match want);
       if not (same_forward (Fib.forward fib a) want) then
         Alcotest.failf "%s: forward %s disagrees with %s" what
           (Ipv4.to_string a) (show_match want))
    probes;
  List.iter
    (fun n ->
       if not (same_match (Fib.get fib n) (Ptree.find reference n)) then
         Alcotest.failf "%s: get %s disagrees" what (Ipv4net.to_string n))
    nets;
  check Alcotest.int (what ^ ": size") (Ptree.size reference) (Fib.size fib);
  check
    Alcotest.(list string)
    (what ^ ": entries")
    (List.map (fun (_, e) -> show_entry e) (Ptree.to_list reference))
    (List.map show_entry (Fib.entries fib))

type fib_op = Add of int * int | Del of int

(* Prefixes of every length from /0 to /32. Most sit in or around
   10.20/16, so one block fills up and nests, and lengths cluster on
   both sides of the /16 split. *)
let gen_net =
  QCheck.Gen.(
    let* len =
      frequency
        [ (1, int_range 0 15); (2, int_range 14 18); (3, int_range 16 32) ]
    in
    let* a =
      frequency
        [ (4, map (fun low -> 0x0A14_0000 lor low) (int_bound 0xFFFF));
          (2, map (fun low -> 0x0A00_0000 lor low) (int_bound 0xFF_FFFF));
          (1, int_bound 0xFFFF_FFFF) ]
    in
    return (Ipv4net.make (Ipv4.of_int a) len))

(* A pool of prefixes and ops indexing into it, so adds overwrite and
   deletes hit as well as miss. *)
let arb_fib_ops =
  let gen =
    QCheck.Gen.(
      let* pool = array_size (int_range 1 60) gen_net in
      let pick = int_bound (Array.length pool - 1) in
      let* ops =
        list_size (int_range 0 250)
          (frequency
             [ (3, map2 (fun i tag -> Add (i, tag)) pick (int_bound 1000));
               (2, map (fun i -> Del i) pick) ])
      in
      let* strays = list_size (return 40) (int_bound 0xFFFF_FFFF) in
      return (pool, ops, strays))
  in
  QCheck.make gen
    ~print:(fun (pool, ops, _) ->
        String.concat "; "
          (List.map
             (function
               | Add (i, tag) ->
                 Printf.sprintf "add %s #%d" (Ipv4net.to_string pool.(i)) tag
               | Del i -> "del " ^ Ipv4net.to_string pool.(i))
             ops))

let prop_fib_matches_trie =
  QCheck.Test.make ~name:"compiled FIB agrees with a trie" ~count:300
    arb_fib_ops (fun (pool, ops, strays) ->
        let fib = Fib.create () in
        let reference = Ptree.create () in
        List.iter
          (function
            | Add (i, tag) ->
              let e =
                { (entry_of pool.(i) tag) with
                  Fib.protocol = (if tag mod 3 = 0 then "connected" else "static") }
              in
              Fib.add fib e;
              ignore (Ptree.insert reference pool.(i) e)
            | Del i ->
              let want = Ptree.remove reference pool.(i) <> None in
              if Fib.delete fib pool.(i) <> want then
                Alcotest.failf "delete %s: expected %b"
                  (Ipv4net.to_string pool.(i)) want)
          ops;
        let nets = Array.to_list pool in
        let edges n =
          let lo = Ipv4net.first_addr n and hi = Ipv4net.last_addr n in
          [ lo; hi; Ipv4.succ hi; Ipv4.of_int (Ipv4.to_int lo - 1) ]
        in
        agree ~what:"random ops" fib reference ~nets
          ~probes:(List.concat_map edges nets @ List.map Ipv4.of_int strays);
        (* Emptied, the FIB is as small as a fresh one: no next-hop
           slot outlives the last prefix naming it. *)
        Array.iter (fun n -> ignore (Fib.delete fib n)) pool;
        check Alcotest.int "emptied: size" 0 (Fib.size fib);
        let words fib = Obj.reachable_words (Obj.repr fib) in
        check Alcotest.int "emptied: words of a fresh FIB"
          (words (Fib.create ())) (words fib);
        true)

(* One /16 as full as a real table gets: the /16 itself, all sixteen
   /20s, every /24 but one, and thousands of /25../32 below them, some
   inside the missing /24 so their chain skips a level. Every address
   of the block is checked, then again after deleting half. *)
let test_dense_block () =
  let base = 0x0A1E_0000 (* 10.30/16 *) in
  let p low len = Ipv4net.make (Ipv4.of_int (base lor low)) len in
  let nets = ref [ p 0 16 ] in
  let push n = nets := n :: !nets in
  for i = 0 to 15 do push (p (i lsl 12) 20) done;
  for c = 0 to 255 do
    if c <> 77 then push (p (c lsl 8) 24);
    if c mod 3 = 2 then
      for len = 25 to 28 do
        for k = 0 to (1 lsl (len - 24)) - 1 do
          push (p ((c lsl 8) lor (k lsl (32 - len))) len)
        done
      done;
    if c mod 17 = 0 || c = 77 then
      for d = 0 to 63 do push (p ((c lsl 8) lor (d * 4)) 32) done
  done;
  let nets = Array.of_list !nets in
  let rng = Random.State.make [| 13 |] in
  for i = Array.length nets - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = nets.(i) in
    nets.(i) <- nets.(j);
    nets.(j) <- x
  done;
  check Alcotest.bool "thousands of prefixes in one /16" true
    (Array.length nets > 3000);
  let fib = Fib.create () in
  let reference = Ptree.create () in
  Array.iteri
    (fun i n ->
       let e = entry_of n i in
       Fib.add fib e;
       ignore (Ptree.insert reference n e))
    nets;
  let block = List.init 0x10000 (fun low -> Ipv4.of_int (base lor low)) in
  let nets_l = Array.to_list nets in
  agree ~what:"full block" fib reference ~probes:block ~nets:nets_l;
  Array.iteri
    (fun i n ->
       if i mod 2 = 0 then begin
         check Alcotest.bool "delete present" true (Fib.delete fib n);
         ignore (Ptree.remove reference n)
       end)
    nets;
  agree ~what:"half deleted" fib reference ~probes:block ~nets:nets_l

(* The FIB's fixed cost must stay small: the converge bench world runs
   30 routers with FIBs of about 80 routes, and a directory of all 2^16
   /16 blocks (65k-131k words per FIB) would several times outweigh
   that world's whole live heap. The trie this replaced took 2,759
   words for the 79-route case. *)
let test_footprint () =
  let words fib = Obj.reachable_words (Obj.repr fib) in
  let fib = Fib.create () in
  let empty = words fib in
  if empty >= 1_000 then Alcotest.failf "empty FIB takes %d words" empty;
  let nh = addr "10.0.0.2" in
  let add a len =
    Fib.add fib
      { Fib.net = Ipv4net.make (addr a) len; nexthop = nh; ifname = "eth0";
        protocol = "bgp" }
  in
  for i = 0 to 29 do add (Printf.sprintf "10.200.%d.0" i) 24 done;
  for i = 0 to 48 do add (Printf.sprintf "172.16.%d.0" (i * 5)) 24 done;
  check Alcotest.int "79 routes" 79 (Fib.size fib);
  let small = words fib in
  if small >= 2_759 then
    Alcotest.failf "79-route FIB takes %d words (trie: 2,759)" small

(* The data plane's lookup allocates nothing on a /16-or-longer hit. *)
let test_forward_allocates_nothing () =
  let fib = Fib.create () in
  List.iter
    (fun (n, ifname) ->
       Fib.add fib
         { Fib.net = net n; nexthop = addr "10.0.0.2"; ifname; protocol = "bgp" })
    [ ("10.1.0.0/16", "eth0"); ("10.1.2.0/24", "eth1"); ("10.1.2.3/32", "eth0");
      ("172.16.0.0/16", "eth1"); ("0.0.0.0/0", "eth0") ];
  let probes =
    Array.map addr [| "10.1.9.9"; "10.1.2.9"; "10.1.2.3"; "172.16.5.5" |]
  in
  Array.iter
    (fun a -> check Alcotest.bool "hit" true (Fib.forward fib a <> None))
    probes;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (Sys.opaque_identity (Fib.forward fib probes.(i land 3)))
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "words for 10,000 forwards" 0 (int_of_float words)

(* --- XRL interface --------------------------------------------------- *)

let test_xrl_add_lookup_delete () =
  let _, _, _, fea, caller = setup () in
  let args = call caller (add_routes4 [ route "172.16.0.0/12" "10.0.0.254" ]) in
  check Alcotest.int "count" 1 (Xrl_atom.get_u32 args "count");
  check Alcotest.int "installed" 1 (Fea.routes_installed fea);
  let args =
    call caller (fea_xrl "lookup_route4" [ Xrl_atom.ipv4 "addr" (addr "172.16.5.5") ])
  in
  check Alcotest.string "nexthop" "10.0.0.254"
    (Ipv4.to_string (Xrl_atom.get_ipv4 args "nexthop"));
  let args = call caller (fea_xrl "get_fib_size" []) in
  check Alcotest.int "fib size" 1 (Xrl_atom.get_u32 args "size");
  ignore (call caller (delete_routes4 [ "172.16.0.0/12" ]));
  let err, _ =
    Xrl_router.call_blocking caller
      (fea_xrl "lookup_route4" [ Xrl_atom.ipv4 "addr" (addr "172.16.5.5") ])
  in
  check Alcotest.bool "lookup now fails" false (Xrl_error.is_ok err)

(* A delete of a prefix with no FIB entry is refused as before, and in
   a longer run it does not stop the rest: the run is applied and the
   reply counts the misses. *)
let test_xrl_delete_missing () =
  let _, _, _, fea, caller = setup () in
  let refused what nets missed =
    match Xrl_router.call_blocking caller (delete_routes4 nets) with
    | Xrl_error.Command_failed msg, _ ->
      check Alcotest.string what ("no FIB entry for " ^ missed) msg
    | e, _ ->
      Alcotest.failf "%s: expected Command_failed, got %s" what
        (Xrl_error.to_string e)
  in
  refused "lone miss" [ "9.9.9.0/24" ] "1/1 routes";
  ignore
    (call caller
       (add_routes4
          [ route "10.0.0.0/8" "10.0.0.254"; route "172.16.0.0/12" "10.0.0.254" ]));
  refused "one miss in three" [ "10.0.0.0/8"; "9.9.9.0/24"; "172.16.0.0/12" ]
    "1/3 routes";
  check Alcotest.int "the rest applied" 0 (Fib.size (Fea.fib fea))

let test_get_interfaces () =
  let _, _, _, _, caller = setup () in
  let args = call caller (fea_xrl "get_interfaces" []) in
  match Xrl_atom.get_list args "interfaces" with
  | [ Txt "eth0"; Txt "10.0.0.1"; Txt "eth1"; Txt "10.1.0.1" ] -> ()
  | l -> Alcotest.failf "unexpected interface list (%d entries)" (List.length l)

(* --- profile points --------------------------------------------------- *)

let test_profile_points () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  ignore fea;
  Telemetry.reset ();
  Telemetry.Profile.enable_all ();
  let caller = Xrl_router.create finder loop ~class_name:"test" () in
  ignore (call caller (add_routes4 [ route "10.0.0.0/8" "192.0.2.1" ]));
  (* A delete records both points too. *)
  ignore (call caller (delete_routes4 [ "10.0.0.0/8" ]));
  let records = Telemetry.Profile.records () in
  Telemetry.Profile.disable_all ();
  check (Alcotest.list Alcotest.string) "arrived then kernel, per route"
    [ Fea.pp_arrived; Fea.pp_kernel; Fea.pp_arrived; Fea.pp_kernel ]
    (List.map (fun (r : Telemetry.Profile.record) -> r.point) records);
  check (Alcotest.list Alcotest.string) "payloads"
    [ "add 10.0.0.0/8"; "add 10.0.0.0/8"; "delete 10.0.0.0/8";
      "delete 10.0.0.0/8" ]
    (List.map Telemetry.Profile.payload records)

let test_profile_disabled_is_noop () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  ignore (Fea.create finder loop ());
  Telemetry.reset ();
  let caller = Xrl_router.create finder loop ~class_name:"test" () in
  ignore (call caller (add_routes4 [ route "10.0.0.0/8" "192.0.2.1" ]));
  check Alcotest.int "no records" 0 (List.length (Telemetry.Profile.records ()))

(* A packed run observes the install histogram once per route, adds and
   deletes alike. *)
let test_install_latency_per_route () =
  Telemetry.set_enabled true;
  let _, _, _, _, caller = setup () in
  let h = Telemetry.histogram "fea.install.latency_us" in
  let nets = [ "10.1.0.0/16"; "10.2.0.0/16"; "10.3.0.0/16" ] in
  ignore (call caller (add_routes4 (List.map (fun n -> route n "10.0.0.254") nets)));
  check Alcotest.int "one observation per added route" 3
    (Telemetry.Histogram.count h);
  ignore (call caller (delete_routes4 nets));
  check Alcotest.int "and per deleted route" 6 (Telemetry.Histogram.count h)

(* --- UDP relay -------------------------------------------------------- *)

let test_udp_relay_roundtrip () =
  let loop, finder, _, _, caller = setup () in
  (* A fake protocol client that records datagrams relayed to it. *)
  let got = ref [] in
  let client = Xrl_router.create finder loop ~class_name:"fakeproto" () in
  Xrl_router.add_handler client ~interface:"fea_client" ~method_name:"recv"
    (fun args reply ->
       got :=
         ( Xrl_atom.get_u32 args "sockid",
           Ipv4.to_string (Xrl_atom.get_ipv4 args "src"),
           Xrl_atom.get_u32 args "sport",
           Xrl_atom.get_binary args "payload" )
         :: !got;
       reply Xrl_error.Ok_xrl []);
  let open_sock addr_s port =
    let args =
      call caller
        (Xrl.make ~target:"fea" ~interface:"fea_udp" ~method_name:"udp_open"
           [ Xrl_atom.txt "client_target" (Xrl_router.instance_name client);
             Xrl_atom.ipv4 "addr" (addr addr_s);
             Xrl_atom.u32 "port" port ])
    in
    Xrl_atom.get_u32 args "sockid"
  in
  let s1 = open_sock "10.0.0.1" 520 in
  let s2 = open_sock "10.1.0.1" 520 in
  check Alcotest.bool "distinct sockids" true (s1 <> s2);
  (* Send from socket 1 to socket 2's address through the relay. *)
  ignore
    (call caller
       (Xrl.make ~target:"fea" ~interface:"fea_udp" ~method_name:"udp_send"
          [ Xrl_atom.u32 "sockid" s1;
            Xrl_atom.ipv4 "dst" (addr "10.1.0.1");
            Xrl_atom.u32 "dport" 520;
            Xrl_atom.binary "payload" "\x02\x02RIPv2" ]));
  Eventloop.run loop;
  (match !got with
   | [ (sockid, src, sport, payload) ] ->
     check Alcotest.int "delivered to socket 2" s2 sockid;
     check Alcotest.string "src addr" "10.0.0.1" src;
     check Alcotest.int "src port" 520 sport;
     check Alcotest.string "payload" "\x02\x02RIPv2" payload
   | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  (* Close and verify sends now fail. *)
  ignore
    (call caller
       (Xrl.make ~target:"fea" ~interface:"fea_udp" ~method_name:"udp_close"
          [ Xrl_atom.u32 "sockid" s1 ]));
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"fea" ~interface:"fea_udp" ~method_name:"udp_send"
         [ Xrl_atom.u32 "sockid" s1;
           Xrl_atom.ipv4 "dst" (addr "10.1.0.1");
           Xrl_atom.u32 "dport" 520;
           Xrl_atom.binary "payload" "x" ])
  in
  check Alcotest.bool "send on closed socket fails" false (Xrl_error.is_ok err)

let test_udp_open_bad_addr () =
  let _, _, _, _, caller = setup () in
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"fea" ~interface:"fea_udp" ~method_name:"udp_open"
         [ Xrl_atom.txt "client_target" "whoever";
           Xrl_atom.ipv4 "addr" (addr "203.0.113.1");
           Xrl_atom.u32 "port" 520 ])
  in
  match err with
  | Xrl_error.Command_failed msg ->
    check Alcotest.bool "mentions interface" true
      (Astring.String.is_infix ~affix:"interface" msg)
  | e -> Alcotest.failf "expected Command_failed, got %s" (Xrl_error.to_string e)

(* A restarted FEA must not inherit the dead generation's telemetry:
   xorp_top polls metrics by dotted name, and before the generation
   reset it would display the old instance's accumulated counts. *)
let test_restart_resets_metrics () =
  Telemetry.set_enabled true;
  let loop, finder, _, fea, caller = setup () in
  ignore (call caller (add_routes4 [ route "172.16.0.0/12" "10.0.0.254" ]));
  let h = Telemetry.histogram "fea.install.latency_us" in
  check Alcotest.bool "first generation recorded an install" true
    (Telemetry.Histogram.count h > 0);
  Fea.shutdown fea;
  let fea2 =
    Fea.create ~interfaces:[ ("eth0", addr "10.0.0.1") ] finder loop ()
  in
  check Alcotest.int "restart starts the namespace from zero" 0
    (Telemetry.Histogram.count h);
  Fea.shutdown fea2

(* FIB lookup load used to be one global counter on Fib.t; it is now
   counted per consumer in telemetry, so control-plane lookups and
   data-plane forwarding no longer conflate. *)
let test_lookup_counted_per_consumer () =
  Telemetry.set_enabled true;
  let loop, _, _, fea, caller = setup () in
  let value name = Telemetry.counter_value (Telemetry.counter name) in
  ignore (call caller (add_routes4 [ route "172.16.0.0/12" "10.0.0.254" ]));
  ignore
    (call caller
       (fea_xrl "lookup_route4" [ Xrl_atom.ipv4 "addr" (addr "172.16.5.5") ]));
  let err, _ =
    Xrl_router.call_blocking caller
      (fea_xrl "lookup_route4" [ Xrl_atom.ipv4 "addr" (addr "99.9.9.9") ])
  in
  check Alcotest.bool "miss still fails" false (Xrl_error.is_ok err);
  check Alcotest.int "control-plane lookups counted (hit and miss)" 2
    (value "fea.lookups.control");
  check Alcotest.int "no data-plane lookups yet" 0
    (value "fea.lookups.dataplane");
  (* One packet through the element graph is one data-plane lookup —
     and does not move the control-plane counter. *)
  let dp = Option.get (Fea.dataplane fea) in
  Dataplane.set_tx_hook dp (Some (fun _ -> `Absorb));
  (match
     Dataplane.inject dp ~ifname:"eth0"
       (Packet.make ~src:(addr "10.0.0.9") ~dst:(addr "172.16.5.5") ())
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Eventloop.run_until_idle loop;
  check Alcotest.int "data-plane lookup counted" 1
    (value "fea.lookups.dataplane");
  check Alcotest.int "control-plane counter untouched" 2
    (value "fea.lookups.control")

let test_sole_instance () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  ignore (Fea.create finder loop ());
  match Fea.create finder loop () with
  | _ -> Alcotest.fail "second FEA accepted"
  | exception Failure _ -> ()

let () =
  Alcotest.run "xorp_fea"
    [
      ( "fib",
        [
          Alcotest.test_case "basics" `Quick test_fib_basics;
          Alcotest.test_case "LPM edge cases" `Quick test_lpm_edge_cases;
          Seeded.qcheck prop_fib_matches_trie;
          Alcotest.test_case "dense block" `Quick test_dense_block;
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "forward allocates nothing" `Quick
            test_forward_allocates_nothing;
          Alcotest.test_case "lookups counted per consumer" `Quick
            test_lookup_counted_per_consumer;
        ] );
      ( "xrl",
        [
          Alcotest.test_case "add/lookup/delete" `Quick
            test_xrl_add_lookup_delete;
          Alcotest.test_case "delete missing" `Quick test_xrl_delete_missing;
          Alcotest.test_case "get_interfaces" `Quick test_get_interfaces;
          Alcotest.test_case "sole instance" `Quick test_sole_instance;
          Alcotest.test_case "restart resets telemetry namespace" `Quick
            test_restart_resets_metrics;
        ] );
      ( "profile",
        [
          Alcotest.test_case "points recorded" `Quick test_profile_points;
          Alcotest.test_case "disabled is no-op" `Quick
            test_profile_disabled_is_noop;
          Alcotest.test_case "install latency per route" `Quick
            test_install_latency_per_route;
        ] );
      ( "udp_relay",
        [
          Alcotest.test_case "roundtrip" `Quick test_udp_relay_roundtrip;
          Alcotest.test_case "bad local address" `Quick test_udp_open_bad_addr;
        ] );
    ]
