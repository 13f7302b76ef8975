(* BGP wire-level tests: AS paths, RFC 4271 message codec, stream
   parser, and the peer session FSM. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* --- AS paths -------------------------------------------------------- *)

let test_aspath_basics () =
  let p = Aspath.prepend 3 (Aspath.prepend 2 (Aspath.prepend 1 Aspath.empty)) in
  check Alcotest.int "length" 3 (Aspath.length p);
  check Alcotest.string "render" "3 2 1" (Aspath.to_string p);
  check (Alcotest.option Alcotest.int) "first" (Some 3) (Aspath.first_as p);
  check (Alcotest.option Alcotest.int) "origin" (Some 1) (Aspath.origin_as p);
  check Alcotest.bool "contains" true (Aspath.contains p 2);
  check Alcotest.bool "not contains" false (Aspath.contains p 9)

let test_aspath_sets () =
  let p = [ Aspath.Seq [ 1; 2 ]; Aspath.Set [ 3; 4; 5 ] ] in
  check Alcotest.int "set counts one" 3 (Aspath.length p);
  check Alcotest.bool "contains in set" true (Aspath.contains p 4);
  check Alcotest.string "render" "1 2 {3,4,5}" (Aspath.to_string p)

let test_aspath_prepend_n () =
  let p = Aspath.prepend_n 65001 3 Aspath.empty in
  check Alcotest.string "triple prepend" "65001 65001 65001" (Aspath.to_string p)

let test_aspath_wire () =
  let p = [ Aspath.Seq [ 1; 70000; 3 ]; Aspath.Set [ 4; 5 ] ] in
  let w = Wire.W.create () in
  Aspath.encode w p;
  let back = Aspath.decode (Wire.R.of_string (Wire.W.contents w)) in
  check Alcotest.bool "roundtrip with 4-byte AS" true (Aspath.equal p back)

(* --- messages -------------------------------------------------------- *)

let attrs ?(aspath = [ Aspath.Seq [ 65001 ] ]) ?med ?localpref
    ?(communities = []) nh =
  { Bgp_types.origin = Bgp_types.IGP; aspath; nexthop = addr nh; med;
    localpref; communities; atomic_aggregate = false }

let roundtrip msg =
  match Bgp_packet.decode (Bgp_packet.encode msg) with
  | Ok m -> m
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_open_roundtrip () =
  match
    roundtrip
      (Bgp_packet.Open
         { version = 4; my_as = 70000; hold_time = 90; bgp_id = addr "1.2.3.4" })
  with
  | Bgp_packet.Open { version; my_as; hold_time; bgp_id } ->
    check Alcotest.int "version" 4 version;
    check Alcotest.int "4-byte AS via capability" 70000 my_as;
    check Alcotest.int "hold" 90 hold_time;
    check Alcotest.string "id" "1.2.3.4" (Ipv4.to_string bgp_id)
  | m -> Alcotest.failf "got %s" (Bgp_packet.msg_to_string m)

let test_keepalive_roundtrip () =
  match roundtrip Bgp_packet.Keepalive with
  | Bgp_packet.Keepalive -> ()
  | m -> Alcotest.failf "got %s" (Bgp_packet.msg_to_string m)

let test_notification_roundtrip () =
  match
    roundtrip (Bgp_packet.Notification { code = 6; subcode = 2; data = "bye" })
  with
  | Bgp_packet.Notification { code = 6; subcode = 2; data = "bye" } -> ()
  | m -> Alcotest.failf "got %s" (Bgp_packet.msg_to_string m)

let test_update_roundtrip () =
  let a =
    { (attrs "10.0.0.1" ~med:50 ~localpref:200 ~communities:[ 0xFFFF0001; 42 ])
      with Bgp_types.origin = Bgp_types.EGP; atomic_aggregate = true }
  in
  let msg =
    Bgp_packet.Update
      { withdrawn = [ net "10.1.0.0/16"; net "192.168.1.0/24" ];
        attrs = Some a;
        nlri = [ net "128.16.0.0/18"; net "0.0.0.0/0"; net "1.2.3.4/32" ] }
  in
  match roundtrip msg with
  | Bgp_packet.Update { withdrawn; attrs = Some b; nlri } ->
    check Alcotest.int "withdrawn" 2 (List.length withdrawn);
    check Alcotest.int "nlri" 3 (List.length nlri);
    check Alcotest.bool "attrs equal" true (Bgp_types.attrs_equal a b);
    check Alcotest.string "default route survives" "0.0.0.0/0"
      (Ipv4net.to_string (List.nth nlri 1))
  | m -> Alcotest.failf "got %s" (Bgp_packet.msg_to_string m)

let test_update_withdraw_only () =
  match
    roundtrip
      (Bgp_packet.Update
         { withdrawn = [ net "10.0.0.0/8" ]; attrs = None; nlri = [] })
  with
  | Bgp_packet.Update { withdrawn = [ w ]; attrs = None; nlri = [] } ->
    check Alcotest.string "prefix" "10.0.0.0/8" (Ipv4net.to_string w)
  | m -> Alcotest.failf "got %s" (Bgp_packet.msg_to_string m)

(* A reference packer: groups found by a linear scan under
   [attrs_equal], groups and prefixes in first-seen order, every list
   cut at 700. *)
let reference_updates ~withdrawn ~announce =
  let groups = ref [] in
  List.iter
    (fun (a, n) ->
       match
         List.find_opt (fun (ga, _) -> Bgp_types.attrs_equal ga a) !groups
       with
       | Some (_, nets) -> nets := n :: !nets
       | None -> groups := (a, ref [ n ]) :: !groups)
    announce;
  let rec cut l =
    if l = [] then []
    else
      List.filteri (fun i _ -> i < 700) l
      :: cut (List.filteri (fun i _ -> i >= 700) l)
  in
  List.map
    (fun nets ->
       Bgp_packet.Update { withdrawn = nets; attrs = None; nlri = [] })
    (cut withdrawn)
  @ List.concat_map
    (fun (a, nets) ->
       List.map
         (fun nlri ->
            Bgp_packet.Update { withdrawn = []; attrs = Some a; nlri })
         (cut (List.rev !nets)))
    (List.rev !groups)

(* The packer against the reference on a slice of the synthetic feed:
   with each route's own attributes (nearly every AS path distinct),
   with attributes that differ only by nexthop (a few groups), and
   with one attribute set (one group cut into three UPDATEs). Every
   message encodes. *)
let test_updates_match_reference () =
  let feed = Feed.generate ~seed:5 3000 in
  let own (e : Feed.entry) =
    attrs (Ipv4.to_string e.nexthop) ~aspath:[ Aspath.Seq e.as_path ]
      ~med:e.med ~localpref:e.localpref
  and by_nexthop (e : Feed.entry) = attrs (Ipv4.to_string e.nexthop) in
  let withdrawn =
    List.map
      (fun (e : Feed.entry) -> e.net)
      (Array.to_list (Array.sub feed 0 1500))
  in
  List.iter
    (fun (what, attrs_of) ->
       let announce =
         Array.to_list
           (Array.map (fun (e : Feed.entry) -> (attrs_of e, e.net))
              (Array.sub feed 1500 1500))
       in
       let got = Bgp_packet.updates ~withdrawn ~announce in
       check Alcotest.bool (what ^ ": same UPDATEs as the reference") true
         (got = reference_updates ~withdrawn ~announce);
       List.iter (fun m -> ignore (Bgp_packet.encode m)) got)
    [ ("own attributes", own); ("grouped by nexthop", by_nexthop);
      ("one attribute set", fun _ -> attrs "10.0.0.1") ];
  check Alcotest.int "withdrawals alone: 700 + 700 + 100" 3
    (List.length (Bgp_packet.updates ~withdrawn ~announce:[]))

let test_decode_rejects () =
  (* corrupt marker *)
  let good = Bgp_packet.encode Bgp_packet.Keepalive in
  let bad = "\x00" ^ String.sub good 1 (String.length good - 1) in
  (match Bgp_packet.decode bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted bad marker");
  (* truncated *)
  (match Bgp_packet.decode (String.sub good 0 10) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted truncation");
  (* NLRI without attributes *)
  let msg =
    Bgp_packet.Update { withdrawn = []; attrs = None; nlri = [ net "10.0.0.0/8" ] }
  in
  match Bgp_packet.decode (Bgp_packet.encode msg) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted NLRI without attributes"

let test_stream_parser_reassembly () =
  let msgs =
    [ Bgp_packet.Keepalive;
      Bgp_packet.Update
        { withdrawn = []; attrs = Some (attrs "10.0.0.1");
          nlri = [ net "10.0.0.0/8" ] };
      Bgp_packet.Keepalive ]
  in
  let stream = String.concat "" (List.map Bgp_packet.encode msgs) in
  let parser = Bgp_packet.Stream_parser.create () in
  (* Feed one byte at a time; count complete messages. *)
  let got = ref 0 in
  String.iter
    (fun c ->
       match Bgp_packet.Stream_parser.feed parser (String.make 1 c) with
       | Ok out -> got := !got + List.length out
       | Error e -> Alcotest.fail e)
    stream;
  check Alcotest.int "all reassembled" 3 !got;
  check Alcotest.int "no leftover" 0 (Bgp_packet.Stream_parser.buffered parser)

let test_stream_parser_poisoning () =
  let parser = Bgp_packet.Stream_parser.create () in
  (match Bgp_packet.Stream_parser.feed parser (String.make 19 '\x00') with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad marker accepted");
  match Bgp_packet.Stream_parser.feed parser (Bgp_packet.encode Bgp_packet.Keepalive) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned parser kept going"

let prop_update_roundtrip =
  let gen =
    QCheck.Gen.(
      let prefix =
        map2
          (fun v l -> Ipv4net.make (Ipv4.of_int (v * 2654435761)) (l mod 33))
          (int_bound 0x3FFFFFFF) (int_bound 32)
      in
      let asn = int_range 1 100000 in
      map2
        (fun (withdrawn, nlri) (path, med) ->
           let attrs =
             if nlri = [] then None
             else
               Some
                 { Bgp_types.origin = Bgp_types.INCOMPLETE;
                   aspath = [ Aspath.Seq path ];
                   nexthop = Ipv4.of_octets 10 0 0 1;
                   med = (if med = 0 then None else Some med);
                   localpref = None; communities = [];
                   atomic_aggregate = false }
           in
           Bgp_packet.Update { withdrawn; attrs; nlri })
        (pair (list_size (int_bound 20) prefix) (list_size (int_bound 20) prefix))
        (pair (list_size (int_range 1 6) asn) (int_bound 100)))
  in
  QCheck.Test.make ~name:"update wire roundtrip" ~count:300 (QCheck.make gen)
    (fun msg ->
       match msg, Bgp_packet.decode (Bgp_packet.encode msg) with
       | Bgp_packet.Update u, Ok (Bgp_packet.Update v) ->
         u.withdrawn = v.withdrawn && u.nlri = v.nlri
         && (match u.attrs, v.attrs with
             | None, None -> true
             | Some a, Some b -> Bgp_types.attrs_equal a b
             | _ -> false)
       | _ -> false)

(* --- FSM -------------------------------------------------------------- *)

(* An in-memory duplex pipe connecting two FSMs through the loop. *)
let pipe loop fsm_a fsm_b =
  let up dst = fun data ->
    ignore (Eventloop.after loop 0.001 (fun () -> Peer_fsm.recv dst data))
  in
  let tr_a =
    { Peer_fsm.tr_send = up fsm_b;
      tr_close =
        (fun () ->
           ignore
             (Eventloop.after loop 0.001 (fun () -> Peer_fsm.transport_closed fsm_b)))
    }
  and tr_b =
    { Peer_fsm.tr_send = up fsm_a;
      tr_close =
        (fun () ->
           ignore
             (Eventloop.after loop 0.001 (fun () -> Peer_fsm.transport_closed fsm_a)))
    }
  in
  (tr_a, tr_b)

let fsm_pair ?(as_a = 65001) ?(as_b = 65002) ?(hold = 90.0) loop =
  let events = ref [] in
  let mk name peer_as local_as =
    Peer_fsm.create loop
      { Peer_fsm.local_as; bgp_id = addr ("10.0.0." ^ name);
        peer_as; hold_time = hold }
      {
        Peer_fsm.on_established = (fun () -> events := (name, "up") :: !events);
        on_update = (fun _ -> events := (name, "update") :: !events);
        on_down = (fun r -> events := (name, "down:" ^ r) :: !events);
      }
  in
  let a = mk "1" as_b as_a in
  let b = mk "2" as_a as_b in
  (a, b, events)

let establish loop a b =
  let tr_a, tr_b = pipe loop a b in
  Peer_fsm.start_active a;
  Peer_fsm.start_passive b;
  Peer_fsm.transport_up a tr_a;
  Peer_fsm.transport_up b tr_b;
  Eventloop.run_until_time loop (Eventloop.now loop +. 1.0)

let test_fsm_establishment () =
  let loop = Eventloop.create () in
  let a, b, events = fsm_pair loop in
  establish loop a b;
  check Alcotest.string "a established" "Established"
    (Peer_fsm.state_to_string (Peer_fsm.state a));
  check Alcotest.string "b established" "Established"
    (Peer_fsm.state_to_string (Peer_fsm.state b));
  check Alcotest.bool "both reported up" true
    (List.mem ("1", "up") !events && List.mem ("2", "up") !events);
  check (Alcotest.float 0.01) "negotiated hold" 90.0
    (Peer_fsm.negotiated_hold_time a)

let test_fsm_rejects_wrong_as () =
  let loop = Eventloop.create () in
  (* B expects AS 65009 but A is 65001. *)
  let a, b, _ = fsm_pair ~as_a:65001 ~as_b:65002 loop in
  ignore b;
  let c =
    Peer_fsm.create loop
      { Peer_fsm.local_as = 65002; bgp_id = addr "10.0.0.2";
        peer_as = 65009; hold_time = 90.0 }
      { Peer_fsm.on_established = (fun () -> Alcotest.fail "established?!");
        on_update = ignore; on_down = ignore }
  in
  establish loop a c;
  check Alcotest.string "refused" "Idle"
    (Peer_fsm.state_to_string (Peer_fsm.state c))

let test_fsm_update_delivery () =
  let loop = Eventloop.create () in
  let a, b, events = fsm_pair loop in
  establish loop a b;
  let sent =
    Peer_fsm.send_update a
      (Bgp_packet.Update
         { withdrawn = []; attrs = Some (attrs "10.0.0.1");
           nlri = [ net "10.0.0.0/8" ] })
  in
  check Alcotest.bool "send accepted" true sent;
  Eventloop.run_until_time loop (Eventloop.now loop +. 0.1);
  check Alcotest.bool "b got the update" true (List.mem ("2", "update") !events);
  check Alcotest.int "rx counter" 1 (Peer_fsm.updates_received b);
  check Alcotest.int "tx counter" 1 (Peer_fsm.updates_sent a)

let test_fsm_update_refused_when_down () =
  let loop = Eventloop.create () in
  let a, _, _ = fsm_pair loop in
  check Alcotest.bool "not established" false
    (Peer_fsm.send_update a
       (Bgp_packet.Update { withdrawn = []; attrs = None; nlri = [] }))

let test_fsm_hold_timer_expiry () =
  let loop = Eventloop.create () in
  let a, b, events = fsm_pair ~hold:30.0 loop in
  establish loop a b;
  (* Sever the wire silently: b never hears from a again and its hold
     timer must fire (a's keepalives no longer arrive). *)
  Peer_fsm.stop a;
  (* stop sends CEASE through tr; but the pipe delivers to b... to test
     the hold timer, instead create a fresh pair and just drop the
     transport without closing. *)
  ignore events;
  let c, d, devents = fsm_pair ~hold:30.0 loop in
  let tr_c, _ = pipe loop c d in
  (* d never gets a transport: c talks into the void. *)
  Peer_fsm.start_active c;
  Peer_fsm.transport_up c tr_c;
  Eventloop.run_until_time loop (Eventloop.now loop +. 60.0);
  check Alcotest.string "c gave up via hold timer" "Idle"
    (Peer_fsm.state_to_string (Peer_fsm.state c));
  check Alcotest.bool "down event fired" true
    (List.exists (fun (n, e) -> n = "1" && String.length e > 4) !devents)

let test_fsm_keepalives_maintain_session () =
  let loop = Eventloop.create () in
  let a, b, events = fsm_pair ~hold:12.0 loop in
  establish loop a b;
  (* Run well past several hold periods with no updates: keepalives
     must keep both sides Established. *)
  Eventloop.run_until_time loop (Eventloop.now loop +. 120.0);
  check Alcotest.string "a still up" "Established"
    (Peer_fsm.state_to_string (Peer_fsm.state a));
  check Alcotest.string "b still up" "Established"
    (Peer_fsm.state_to_string (Peer_fsm.state b));
  check Alcotest.bool "no down events" true
    (not (List.exists (fun (_, e) -> String.length e > 5 && String.sub e 0 5 = "down:") !events))

let test_fsm_notification_tears_down () =
  let loop = Eventloop.create () in
  let a, b, _ = fsm_pair loop in
  establish loop a b;
  Peer_fsm.stop a; (* sends CEASE *)
  Eventloop.run_until_time loop (Eventloop.now loop +. 0.1);
  check Alcotest.string "a idle" "Idle"
    (Peer_fsm.state_to_string (Peer_fsm.state a));
  check Alcotest.string "b idle after NOTIFICATION" "Idle"
    (Peer_fsm.state_to_string (Peer_fsm.state b))

let () =
  Alcotest.run "xorp_bgp_wire"
    [
      ( "aspath",
        [
          Alcotest.test_case "basics" `Quick test_aspath_basics;
          Alcotest.test_case "sets" `Quick test_aspath_sets;
          Alcotest.test_case "prepend_n" `Quick test_aspath_prepend_n;
          Alcotest.test_case "wire roundtrip" `Quick test_aspath_wire;
        ] );
      ( "messages",
        [
          Alcotest.test_case "open" `Quick test_open_roundtrip;
          Alcotest.test_case "keepalive" `Quick test_keepalive_roundtrip;
          Alcotest.test_case "notification" `Quick test_notification_roundtrip;
          Alcotest.test_case "update" `Quick test_update_roundtrip;
          Alcotest.test_case "withdraw-only update" `Quick
            test_update_withdraw_only;
          Alcotest.test_case "rejects malformed" `Quick test_decode_rejects;
          Alcotest.test_case "updates match a linear-scan reference" `Quick
            test_updates_match_reference;
        ] );
      ( "stream",
        [
          Alcotest.test_case "byte-at-a-time reassembly" `Quick
            test_stream_parser_reassembly;
          Alcotest.test_case "poisoning" `Quick test_stream_parser_poisoning;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "establishment" `Quick test_fsm_establishment;
          Alcotest.test_case "wrong AS refused" `Quick test_fsm_rejects_wrong_as;
          Alcotest.test_case "update delivery" `Quick test_fsm_update_delivery;
          Alcotest.test_case "update refused when down" `Quick
            test_fsm_update_refused_when_down;
          Alcotest.test_case "hold timer expiry" `Quick
            test_fsm_hold_timer_expiry;
          Alcotest.test_case "keepalives maintain session" `Quick
            test_fsm_keepalives_maintain_session;
          Alcotest.test_case "notification teardown" `Quick
            test_fsm_notification_tears_down;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_update_roundtrip ]);
    ]
