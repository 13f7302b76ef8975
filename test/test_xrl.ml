(* Tests for the XRL IPC layer: atom syntax, XRL syntax, binary wire
   encoding, the Finder, and end-to-end calls over the intra-process,
   TCP and UDP protocol families. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn
let atom_t = Alcotest.testable Xrl_atom.pp Xrl_atom.equal
let xrl_t = Alcotest.testable Xrl.pp Xrl.equal

(* --- atoms ---------------------------------------------------------- *)

let test_atom_text () =
  check Alcotest.string "u32" "as:u32=1777"
    (Xrl_atom.to_text (Xrl_atom.u32 "as" 1777));
  check Alcotest.string "bool" "enabled:bool=true"
    (Xrl_atom.to_text (Xrl_atom.boolean "enabled" true));
  check Alcotest.string "ipv4" "nexthop:ipv4=10.0.0.1"
    (Xrl_atom.to_text (Xrl_atom.ipv4 "nexthop" (addr "10.0.0.1")));
  check Alcotest.string "ipv4net escapes the slash" "net:ipv4net=10.0.0.0%2F8"
    (Xrl_atom.to_text (Xrl_atom.ipv4net "net" (net "10.0.0.0/8")))

let test_atom_text_roundtrip () =
  let atoms =
    [ Xrl_atom.u32 "a" 0; Xrl_atom.u32 "b" 0xFFFFFFFF;
      Xrl_atom.i32 "c" (-42); Xrl_atom.u64 "d" 0x1234_5678_9ABC_DEF0L;
      Xrl_atom.txt "e" "hello world & more?=";
      Xrl_atom.boolean "f" false;
      Xrl_atom.ipv4 "g" (addr "192.0.2.1");
      Xrl_atom.ipv4net "h" (net "128.16.0.0/18");
      Xrl_atom.binary "i" "\x00\x01\xFFbin" ]
  in
  List.iter
    (fun a ->
       match Xrl_atom.of_text (Xrl_atom.to_text a) with
       | Ok b -> check atom_t (Xrl_atom.to_text a) a b
       | Error e -> Alcotest.failf "parse %s: %s" (Xrl_atom.to_text a) e)
    atoms

let test_atom_rejects () =
  List.iter
    (fun s ->
       match Xrl_atom.of_text s with
       | Ok _ -> Alcotest.failf "accepted %S" s
       | Error _ -> ())
    [ "noval"; "x:u32"; ":u32=1"; "x:wat=1"; "x:u32=abc"; "x:u32=-1";
      "x:bool=yes"; "x:ipv4=1.2.3"; "x:u32=4294967296" ]

let test_atom_getters () =
  let args = [ Xrl_atom.u32 "as" 1777; Xrl_atom.txt "name" "xorp" ] in
  check Alcotest.int "get_u32" 1777 (Xrl_atom.get_u32 args "as");
  check Alcotest.string "get_txt" "xorp" (Xrl_atom.get_txt args "name");
  Alcotest.check_raises "missing"
    (Xrl_atom.Bad_args "missing argument \"nope\"") (fun () ->
        ignore (Xrl_atom.get_u32 args "nope"));
  (try
     ignore (Xrl_atom.get_u32 args "name");
     Alcotest.fail "type mismatch accepted"
   with Xrl_atom.Bad_args _ -> ())

(* --- XRL syntax ----------------------------------------------------- *)

let test_xrl_text () =
  let xrl =
    Xrl.make ~target:"bgp" ~interface:"bgp" ~method_name:"set_local_as"
      [ Xrl_atom.u32 "as" 1777 ]
  in
  check Alcotest.string "paper example"
    "finder://bgp/bgp/1.0/set_local_as?as:u32=1777" (Xrl.to_text xrl);
  check Alcotest.string "method_id" "bgp/1.0/set_local_as" (Xrl.method_id xrl);
  check Alcotest.bool "generic" false (Xrl.is_resolved xrl)

let test_xrl_parse () =
  match Xrl.of_text "finder://bgp/bgp/1.0/set_local_as?as:u32=1777" with
  | Ok xrl ->
    check Alcotest.string "target" "bgp" xrl.Xrl.target;
    check Alcotest.string "method" "set_local_as" xrl.Xrl.method_name;
    check Alcotest.int "arg" 1777 (Xrl_atom.get_u32 xrl.Xrl.args "as")
  | Error e -> Alcotest.fail e

let test_xrl_parse_resolved () =
  match Xrl.of_text "stcp://127.0.0.1:16878/bgp/1.0/set_local_as?as:u32=1777" with
  | Ok xrl ->
    check Alcotest.bool "resolved" true (Xrl.is_resolved xrl);
    check Alcotest.string "address target" "127.0.0.1:16878" xrl.Xrl.target
  | Error e -> Alcotest.fail e

let test_xrl_parse_no_args () =
  match Xrl.of_text "finder://rib/rib/1.0/get_version" with
  | Ok xrl -> check Alcotest.int "no args" 0 (List.length xrl.Xrl.args)
  | Error e -> Alcotest.fail e

let test_xrl_rejects () =
  List.iter
    (fun s ->
       match Xrl.of_text s with
       | Ok _ -> Alcotest.failf "accepted %S" s
       | Error _ -> ())
    [ ""; "finder://bgp"; "finder://bgp/iface"; "http:/x/y/z/w";
      "finder://bgp/bgp/1.0/m?novalue" ]

let test_xrl_text_roundtrip () =
  let xrl =
    Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_route"
      [ Xrl_atom.ipv4net "net" (net "10.0.0.0/8");
        Xrl_atom.ipv4 "nexthop" (addr "192.0.2.1");
        Xrl_atom.u32 "metric" 10 ]
  in
  match Xrl.of_text (Xrl.to_text xrl) with
  | Ok back -> check xrl_t "roundtrip" xrl back
  | Error e -> Alcotest.fail e

let prop_atom_text_roundtrip =
  (* Arbitrary byte strings in txt atoms survive the percent-escaped
     canonical text form, including reserved characters and newlines. *)
  QCheck.Test.make ~name:"atom text roundtrip (arbitrary bytes)" ~count:500
    QCheck.(string_gen_of_size (Gen.int_bound 30) (Gen.char))
    (fun s ->
       let a = Xrl_atom.txt "x" s in
       match Xrl_atom.of_text (Xrl_atom.to_text a) with
       | Ok b -> Xrl_atom.equal a b
       | Error _ -> false)

let prop_xrl_text_roundtrip_with_args =
  QCheck.Test.make ~name:"xrl text roundtrip (random txt args)" ~count:300
    QCheck.(list_of_size (Gen.int_bound 5)
              (string_gen_of_size (Gen.int_bound 12) Gen.printable))
    (fun values ->
       let args = List.mapi (fun i v -> Xrl_atom.txt (Printf.sprintf "a%d" i) v) values in
       let xrl = Xrl.make ~target:"tgt" ~interface:"i" ~method_name:"m" args in
       match Xrl.of_text (Xrl.to_text xrl) with
       | Ok back -> Xrl.equal xrl back
       | Error _ -> false)

(* --- wire encoding -------------------------------------------------- *)

let arb_value =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ map (fun v -> Xrl_atom.U32 (v land 0xFFFFFFFF)) (int_bound 0x3FFFFFFF);
        map (fun v -> Xrl_atom.I32 (v - 0x40000000)) (int_bound 0x7FFFFFFF);
        map (fun v -> Xrl_atom.U64 (Int64.of_int v)) (int_bound max_int);
        map (fun s -> Xrl_atom.Txt s) (string_size (int_bound 40));
        map (fun b -> Xrl_atom.Bool b) bool;
        map (fun v -> Xrl_atom.Ipv4_v (Ipv4.of_int v)) (int_bound 0x3FFFFFFF);
        map2
          (fun v l -> Xrl_atom.Ipv4net_v (Ipv4net.make (Ipv4.of_int v) (l mod 33)))
          (int_bound 0x3FFFFFFF) (int_bound 32);
        map (fun s -> Xrl_atom.Binary s) (string_size (int_bound 40)) ]
  in
  let value =
    oneof [ scalar; map (fun vs -> Xrl_atom.List vs) (list_size (int_bound 5) scalar) ]
  in
  QCheck.make value

let arb_atoms =
  QCheck.make
    QCheck.Gen.(
      list_size (int_bound 8)
        (map2
           (fun i v -> Xrl_atom.make (Printf.sprintf "arg%d" i) v)
           (int_bound 1000) (QCheck.gen arb_value)))

let prop_wire_request_roundtrip =
  QCheck.Test.make ~name:"wire request roundtrip" ~count:300 arb_atoms
    (fun atoms ->
       let xrl =
         Xrl.make ~protocol:"stcp" ~target:"127.0.0.1:1" ~interface:"test"
           ~method_name:"m" atoms
       in
       let msg = Xrl_wire.Request { seq = 12345; xrl } in
       match Xrl_wire.decode (Xrl_wire.encode msg) with
       | Ok (Xrl_wire.Request { seq; xrl = back }) ->
         seq = 12345 && Xrl.equal xrl back
       | _ -> false)

let prop_wire_reply_roundtrip =
  QCheck.Test.make ~name:"wire reply roundtrip" ~count:300 arb_atoms
    (fun atoms ->
       let msg =
         Xrl_wire.Reply
           { seq = 7; error = Xrl_error.Command_failed "nope"; args = atoms }
       in
       match Xrl_wire.decode (Xrl_wire.encode msg) with
       | Ok (Xrl_wire.Reply { seq; error; args }) ->
         seq = 7
         && Xrl_error.code error = 4
         && List.length args = List.length atoms
         && List.for_all2 Xrl_atom.equal args atoms
       | _ -> false)

(* --- frames and truncation ------------------------------------------ *)

let msg_equal (a : Xrl_wire.message) (b : Xrl_wire.message) =
  match a, b with
  | Xrl_wire.Request { seq = s1; xrl = x1 },
    Xrl_wire.Request { seq = s2; xrl = x2 } -> s1 = s2 && Xrl.equal x1 x2
  | Xrl_wire.Reply { seq = s1; error = e1; args = a1 },
    Xrl_wire.Reply { seq = s2; error = e2; args = a2 } ->
    s1 = s2 && e1 = e2
    && List.length a1 = List.length a2
    && List.for_all2 Xrl_atom.equal a1 a2
  | _ -> false

let gen_message =
  let open QCheck.Gen in
  let gen_atoms = QCheck.gen arb_atoms in
  let gen_req =
    map2
      (fun seq atoms ->
         Xrl_wire.Request
           { seq;
             xrl =
               Xrl.make ~protocol:"stcp" ~target:"127.0.0.1:1"
                 ~interface:"iface" ~method_name:"m" atoms } )
      (int_bound 0xFFFFFF) gen_atoms
  in
  let gen_rep =
    let gen_err =
      oneofl
        [ Xrl_error.Ok_xrl; Xrl_error.Command_failed "nope";
          Xrl_error.Bad_args "missing"; Xrl_error.No_such_method "x/1.0/y" ]
    in
    map3
      (fun seq err atoms -> Xrl_wire.Reply { seq; error = err; args = atoms })
      (int_bound 0xFFFFFF) gen_err gen_atoms
  in
  oneof [ gen_req; gen_rep ]

(* Any message must round-trip exactly, and EVERY strict prefix of its
   encoding must decode to an Error (no prefix may parse as a shorter
   valid message). All wire structures carry declared lengths, so
   decoding a cut never succeeds by accident. *)
let prop_wire_roundtrip_and_truncation =
  QCheck.Test.make ~name:"roundtrip + every-prefix truncation" ~count:60
    (QCheck.make gen_message)
    (fun msg ->
       let s = Xrl_wire.encode msg in
       let roundtrips =
         match Xrl_wire.decode s with
         | Ok back -> msg_equal msg back
         | Error _ -> false
       in
       let every_prefix_errors = ref true in
       for i = 0 to String.length s - 1 do
         match Xrl_wire.decode (String.sub s 0 i) with
         | Ok _ -> every_prefix_errors := false
         | Error _ -> ()
       done;
       roundtrips && !every_prefix_errors)

(* A well-formed frame of kind 2: a u16 count of 1, then [inner]'s
   body, the layout of an older encoder's batch frame. Only kinds 0
   (request) and 1 (reply) exist, so a peer sending one must get an
   Error, never a dispatch. *)
let kind2_frame inner =
  let body = Xrl_wire.encode inner in
  let w = Wire.W.create () in
  Wire.W.bytes w "XO\x01\x02";
  Wire.W.u16 w 1;
  Wire.W.bytes w (String.sub body 3 (String.length body - 3));
  Wire.W.contents w

let test_wire_kind2_rejected () =
  let req =
    Xrl_wire.Request
      { seq = 1;
        xrl =
          Xrl.make ~protocol:"stcp" ~target:"127.0.0.1:1" ~interface:"i"
            ~method_name:"m" [ Xrl_atom.u32 "a" 1 ] }
  in
  match Xrl_wire.decode (kind2_frame req) with
  | Ok _ -> Alcotest.fail "kind-2 frame decoded"
  | Error _ -> ()

let test_wire_garbage () =
  List.iter
    (fun s ->
       match Xrl_wire.decode s with
       | Ok _ -> Alcotest.failf "decoded garbage %S" s
       | Error _ -> ())
    [ ""; "XO"; "ZZ\x01\x00\x00\x00\x00\x00"; "XO\x09\x00\x00\x00\x00\x00";
      String.make 40 '\xFF' ]

(* --- Finder --------------------------------------------------------- *)

let test_finder_register_resolve () =
  let f = Finder.create () in
  let target =
    match
      Finder.register_target f ~class_name:"bgp"
        ~addresses:[ ("x-intra", "intra:1") ] ()
    with
    | Ok target -> target
    | Error e -> Alcotest.fail e
  in
  let key = Finder.register_method f target ~method_id:"bgp/1.0/set_local_as" in
  check Alcotest.int "key is 16 bytes hex" 32 (String.length key);
  let xrl =
    Xrl.make ~target:"bgp" ~interface:"bgp" ~method_name:"set_local_as" []
  in
  match Finder.resolve f xrl with
  | Ok r ->
    check Alcotest.string "family" "x-intra" r.Finder.family;
    check Alcotest.string "address" "intra:1" r.Finder.address;
    check Alcotest.string "keyed method" ("set_local_as@" ^ key)
      r.Finder.keyed_method
  | Error e -> Alcotest.fail (Xrl_error.to_string e)

let test_finder_resolve_failures () =
  let f = Finder.create () in
  let target =
    Result.get_ok
      (Finder.register_target f ~class_name:"bgp"
         ~addresses:[ ("x-intra", "intra:1") ] ())
  in
  ignore (Finder.register_method f target ~method_id:"bgp/1.0/known");
  let mk m = Xrl.make ~target:"bgp" ~interface:"bgp" ~method_name:m [] in
  (match Finder.resolve f (mk "unknown") with
   | Error (Xrl_error.No_such_method _) -> ()
   | _ -> Alcotest.fail "expected No_such_method");
  (match
     Finder.resolve f
       (Xrl.make ~target:"ospf" ~interface:"x" ~method_name:"y" [])
   with
   | Error (Xrl_error.Resolve_failed _) -> ()
   | _ -> Alcotest.fail "expected Resolve_failed")

let test_finder_sole () =
  let f = Finder.create () in
  ignore
    (Result.get_ok
       (Finder.register_target f ~class_name:"rib" ~sole:true
          ~addresses:[ ("x-intra", "intra:1") ] ()));
  match
    Finder.register_target f ~class_name:"rib" ~sole:true
      ~addresses:[ ("x-intra", "intra:2") ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second sole instance accepted"

let test_finder_lifetime_events () =
  let f = Finder.create () in
  let events = ref [] in
  let t1 =
    Result.get_ok
      (Finder.register_target f ~class_name:"bgp"
         ~addresses:[ ("x-intra", "intra:1") ] ())
  in
  (* watcher registered after t1: still gets a synthetic birth *)
  let unwatch =
    Finder.watch_class f "bgp" (fun ev inst ->
        events :=
          ((match ev with Finder.Birth -> "birth" | Finder.Death -> "death"),
           inst)
          :: !events)
  in
  let t2 =
    Result.get_ok
      (Finder.register_target f ~class_name:"bgp"
         ~addresses:[ ("x-intra", "intra:2") ] ())
  in
  Finder.unregister_target f t1;
  Finder.unregister_target f t1; (* idempotent *)
  Finder.unregister_target f t2;
  let i1 = Finder.instance_name t1 and i2 = Finder.instance_name t2 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "event order"
    [ ("birth", i1); ("birth", i2); ("death", i1); ("death", i2) ]
    (List.rev !events);
  check (Alcotest.list Alcotest.string) "no instances left" []
    (Finder.live_instances f "bgp");
  check Alcotest.int "one watcher" 1 (Finder.watcher_count f);
  unwatch ();
  unwatch (); (* idempotent *)
  check Alcotest.int "remover unwatches" 0 (Finder.watcher_count f);
  ignore
    (Finder.register_target f ~class_name:"bgp"
       ~addresses:[ ("x-intra", "intra:3") ] ());
  check Alcotest.int "removed watcher not called" 4 (List.length !events)

let test_finder_family_preference () =
  let f = Finder.create () in
  let target =
    Result.get_ok
      (Finder.register_target f ~class_name:"fea"
         ~addresses:[ ("stcp", "127.0.0.1:1"); ("sudp", "127.0.0.1:2") ] ())
  in
  ignore (Finder.register_method f target ~method_id:"fea/1.0/m");
  let xrl = Xrl.make ~target:"fea" ~interface:"fea" ~method_name:"m" [] in
  (match Finder.resolve f ~family_pref:[ "sudp" ] xrl with
   | Ok r -> check Alcotest.string "udp preferred" "sudp" r.Finder.family
   | Error e -> Alcotest.fail (Xrl_error.to_string e));
  (match Finder.resolve f ~family_pref:[ "x-intra" ] xrl with
   | Ok r -> check Alcotest.string "falls back to first" "stcp" r.Finder.family
   | Error e -> Alcotest.fail (Xrl_error.to_string e))

(* --- end-to-end over protocol families ------------------------------ *)

(* A toy "adder" component with one method. *)
let make_adder ?families finder loop =
  let router =
    Xrl_router.create ?families finder loop ~class_name:"adder" ()
  in
  Xrl_router.add_handler router ~interface:"math" ~method_name:"add"
    (fun args reply ->
       let a = Xrl_atom.get_u32 args "a" and b = Xrl_atom.get_u32 args "b" in
       reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "sum" (a + b) ]);
  Xrl_router.add_handler router ~interface:"math" ~method_name:"fail"
    (fun _ reply -> reply (Xrl_error.Command_failed "deliberate") []);
  router

let add_xrl a b =
  Xrl.make ~target:"adder" ~interface:"math" ~method_name:"add"
    [ Xrl_atom.u32 "a" a; Xrl_atom.u32 "b" b ]

let run_adder_scenario ~families ~pref ~mode () =
  let loop = Eventloop.create ~mode () in
  let finder = Finder.create () in
  let adder = make_adder ~families finder loop in
  let caller =
    Xrl_router.create ~families ~family_pref:pref finder loop
      ~class_name:"caller" ()
  in
  let err, args = Xrl_router.call_blocking caller (add_xrl 20 22) in
  check Alcotest.bool ("add ok: " ^ Xrl_error.to_string err) true
    (Xrl_error.is_ok err);
  check Alcotest.int "sum" 42 (Xrl_atom.get_u32 args "sum");
  (* error propagation *)
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"adder" ~interface:"math" ~method_name:"fail" [])
  in
  (match err with
   | Xrl_error.Command_failed "deliberate" -> ()
   | e -> Alcotest.failf "expected Command_failed, got %s" (Xrl_error.to_string e));
  (* bad args propagation *)
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"adder" ~interface:"math" ~method_name:"add"
         [ Xrl_atom.txt "a" "x" ])
  in
  (match err with
   | Xrl_error.Bad_args _ -> ()
   | e -> Alcotest.failf "expected Bad_args, got %s" (Xrl_error.to_string e));
  Xrl_router.shutdown adder;
  Xrl_router.shutdown caller

(* --- watch_peer: the one lifecycle primitive ----------------------- *)

(* A watcher router, and instances of class "peer" that come and go at
   the Finder. *)
let peer_world () =
  let loop = Eventloop.create () in
  let f = Finder.create () in
  let born () =
    Result.get_ok
      (Finder.register_target f ~class_name:"peer" ~addresses:[] ())
  in
  (loop, f, born)

let watch_log r =
  let log = ref [] in
  Xrl_router.watch_peer r ~cls:"peer"
    ~on_death:(fun () -> log := "death" :: !log)
    ~on_rebirth:(fun () -> log := "rebirth" :: !log)
    ();
  fun () -> List.rev !log

let strings = Alcotest.(list string)

let test_watch_peer_begun_live () =
  let loop, f, born = peer_world () in
  ignore (born ());
  let r = Xrl_router.create f loop ~class_name:"watcher" () in
  let log = watch_log r in
  ignore (born ());
  Eventloop.run_until_idle loop;
  check strings "a live peer's births call nothing" [] (log ());
  check Alcotest.bool "live" true (Xrl_router.peer_live r "peer")

let test_watch_peer_begun_down () =
  let loop, f, born = peer_world () in
  let r = Xrl_router.create f loop ~class_name:"watcher" () in
  let log = watch_log r in
  check Alcotest.bool "down" false (Xrl_router.peer_live r "peer");
  let p = born () in
  check strings "not synchronous" [] (log ());
  check Alcotest.bool "live from the birth on" true
    (Xrl_router.peer_live r "peer");
  ignore (Eventloop.run_once loop);
  check strings "one turn after the birth" [ "rebirth" ] (log ());
  Eventloop.run_until_idle loop;
  check strings "once" [ "rebirth" ] (log ());
  Finder.unregister_target f p;
  check strings "then the death" [ "rebirth"; "death" ] (log ())

let test_watch_peer_last_death () =
  let loop, f, born = peer_world () in
  let p1 = born () and p2 = born () in
  let r = Xrl_router.create f loop ~class_name:"watcher" () in
  let log = watch_log r in
  Finder.unregister_target f p1;
  check strings "one of two dies: nothing" [] (log ());
  Finder.unregister_target f p2;
  Finder.unregister_target f p2;
  check strings "the last dies: one death" [ "death" ] (log ());
  ignore (born ());
  ignore (born ());
  Eventloop.run_until_idle loop;
  check strings "two births: one rebirth" [ "death"; "rebirth" ] (log ())

let test_watch_peer_same_turn () =
  let loop, f, born = peer_world () in
  let r = Xrl_router.create f loop ~class_name:"watcher" () in
  let log = watch_log r in
  Finder.unregister_target f (born ());
  Eventloop.run_until_idle loop;
  check strings "birth then death in one turn: nothing" [] (log ());
  Finder.unregister_target f (born ());
  let p = born () in
  Eventloop.run_until_idle loop;
  check strings "birth, death, birth: one rebirth" [ "rebirth" ] (log ());
  Finder.unregister_target f p;
  check strings "and its death" [ "rebirth"; "death" ] (log ())

let test_watch_peer_shutdown () =
  let loop, f, born = peer_world () in
  let before = Finder.watcher_count f in
  let adder = make_adder f loop in
  let r1 = Xrl_router.create f loop ~class_name:"watcher" () in
  let r2 = Xrl_router.create f loop ~class_name:"watcher" () in
  (* A sender towards a class adds the router's own eviction watch. *)
  let err, _ = Xrl_router.call_blocking r2 (add_xrl 1 2) in
  check Alcotest.bool "call ok" true (Xrl_error.is_ok err);
  let log1 = watch_log r1 in
  let p = born () in
  let log2 = watch_log r2 in
  Xrl_router.shutdown r1;
  Xrl_router.shutdown r2;
  Eventloop.run_until_idle loop;
  check strings "shutdown before the rebirth turn: nothing" [] (log1 ());
  Finder.unregister_target f p;
  check strings "no death after shutdown" [] (log2 ());
  Xrl_router.shutdown adder;
  check Alcotest.int "every watch removed" before (Finder.watcher_count f)

let test_peer_live_allocates_nothing () =
  let loop, f, born = peer_world () in
  let r = Xrl_router.create f loop ~class_name:"watcher" () in
  ignore (born ());
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Xrl_router.peer_live r "peer"));
    ignore (Sys.opaque_identity (Xrl_router.peer_live r "absent"))
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "%.0f words for 20,000 reads" words)
    true (words < 100.)

let test_finder_keys_match_printf () =
  (* The keys are the same 16 draws the "%02x" formula formatted, so
     every seeded schedule is unchanged. *)
  let f = Finder.create ~seed:42 () in
  let target =
    Result.get_ok (Finder.register_target f ~class_name:"k" ~addresses:[] ())
  in
  let rng = Rng.create 42 in
  for i = 1 to 500 do
    let expected =
      String.concat ""
        (List.init 16 (fun _ -> Printf.sprintf "%02x" (Rng.int rng 256)))
    in
    check Alcotest.string "key" expected
      (Finder.register_method f target ~method_id:(string_of_int i))
  done

let test_intra_call () =
  run_adder_scenario ~families:[ Pf_intra.family ] ~pref:[ "x-intra" ]
    ~mode:`Sim ()

let test_tcp_call () =
  run_adder_scenario
    ~families:[ Pf_tcp.family ]
    ~pref:[ "stcp" ] ~mode:`Real ()

let test_udp_call () =
  run_adder_scenario
    ~families:[ Pf_udp.family ]
    ~pref:[ "sudp" ] ~mode:`Real ()

let test_tcp_pipelining () =
  (* Many outstanding requests on one connection; all replies arrive
     and match. *)
  let loop = Eventloop.create ~mode:`Real () in
  let finder = Finder.create () in
  let adder = make_adder ~families:[ Pf_tcp.family ] finder loop in
  let caller =
    Xrl_router.create ~families:[ Pf_tcp.family ] ~family_pref:[ "stcp" ]
      finder loop ~class_name:"caller" ()
  in
  let n = 200 in
  let got = ref 0 in
  let wrong = ref 0 in
  for i = 1 to n do
    Xrl_router.send caller (add_xrl i i) (fun err args ->
        incr got;
        if
          (not (Xrl_error.is_ok err))
          || Xrl_atom.get_u32 args "sum" <> 2 * i
        then incr wrong)
  done;
  Eventloop.run ~until:(fun () -> !got >= n) loop;
  check Alcotest.int "all replies" n !got;
  check Alcotest.int "all correct" 0 !wrong;
  Xrl_router.shutdown adder;
  Xrl_router.shutdown caller

(* --- per-request order and errors over TCP ---------------------------- *)

let tcp_rig () =
  let loop = Eventloop.create ~mode:`Real () in
  let finder = Finder.create () in
  let order = ref [] in
  let adder =
    Xrl_router.create ~families:[ Pf_tcp.family ] finder loop
      ~class_name:"adder" ()
  in
  Xrl_router.add_handler adder ~interface:"math" ~method_name:"add"
    (fun args reply ->
       let a = Xrl_atom.get_u32 args "a" and b = Xrl_atom.get_u32 args "b" in
       order := a :: !order;
       reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "sum" (a + b) ]);
  Xrl_router.add_handler adder ~interface:"math" ~method_name:"fail"
    (fun _ reply -> reply (Xrl_error.Command_failed "deliberate") []);
  let caller =
    Xrl_router.create ~families:[ Pf_tcp.family ] ~family_pref:[ "stcp" ]
      finder loop ~class_name:"caller" ()
  in
  (loop, adder, caller, order)

let test_tcp_fifo_order () =
  (* The handler must observe requests in send order, many of them
     outstanding on one connection at once. *)
  let loop, adder, caller, order = tcp_rig () in
  let n = 40 in
  let got = ref 0 in
  for i = 1 to n do
    Xrl_router.send caller (add_xrl i 0) (fun _ _ -> incr got)
  done;
  Eventloop.run ~until:(fun () -> !got >= n) loop;
  check
    Alcotest.(list int)
    "dispatch order is send order"
    (List.init n (fun i -> i + 1))
    (List.rev !order);
  Xrl_router.shutdown adder;
  Xrl_router.shutdown caller

let test_tcp_per_request_errors () =
  (* A failing request among pipelined ones fails alone; its
     neighbours succeed. *)
  let loop, adder, caller, _ = tcp_rig () in
  let results = Hashtbl.create 8 in
  let got = ref 0 in
  let expect = ref 0 in
  let send_ok i =
    incr expect;
    Xrl_router.send caller (add_xrl i i) (fun err _ ->
        incr got;
        Hashtbl.replace results i (Xrl_error.is_ok err))
  in
  let send_fail i =
    incr expect;
    Xrl_router.send caller
      (Xrl.make ~target:"adder" ~interface:"math" ~method_name:"fail" [])
      (fun err _ ->
         incr got;
         Hashtbl.replace results i
           (match err with Xrl_error.Command_failed "deliberate" -> false | _ -> true))
  in
  send_ok 1; send_fail 2; send_ok 3; send_fail 4; send_ok 5;
  Eventloop.run ~until:(fun () -> !got >= !expect) loop;
  check Alcotest.bool "1 ok" true (Hashtbl.find results 1);
  check Alcotest.bool "2 failed with its own error" false (Hashtbl.find results 2);
  check Alcotest.bool "3 ok" true (Hashtbl.find results 3);
  check Alcotest.bool "4 failed with its own error" false (Hashtbl.find results 4);
  check Alcotest.bool "5 ok" true (Hashtbl.find results 5);
  Xrl_router.shutdown adder;
  Xrl_router.shutdown caller

let test_tcp_listener_drops_kind2 () =
  (* A client outside this program writes, over one raw connection, a
     kind-2 frame holding a valid keyed request and then a valid keyed
     request of its own. The listener drops the first frame and answers
     the second, so the handler runs once. *)
  let loop, adder, caller, order = tcp_rig () in
  let r =
    Result.get_ok
      (Finder.resolve (Xrl_router.finder adder) ~family_pref:[ "stcp" ]
         (add_xrl 0 0))
  in
  let keyed a =
    Xrl.make ~protocol:r.Finder.family ~target:r.Finder.address
      ~interface:"math" ~method_name:r.Finder.keyed_method
      [ Xrl_atom.u32 "a" a; Xrl_atom.u32 "b" 0 ]
  in
  let port = Scanf.sscanf r.Finder.address "127.0.0.1:%d" Fun.id in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let replies = ref [] in
  let conn =
    Sockbuf.attach loop fd
      ~on_frame:(fun f -> replies := Xrl_wire.decode f :: !replies)
      ~on_close:ignore
  in
  Sockbuf.send_frame conn
    (kind2_frame (Xrl_wire.Request { seq = 1; xrl = keyed 1 }));
  Sockbuf.send_frame conn
    (Xrl_wire.encode (Xrl_wire.Request { seq = 2; xrl = keyed 2 }));
  let expired = ref false in
  let guard = Eventloop.after loop 5.0 (fun () -> expired := true) in
  Eventloop.run ~until:(fun () -> !replies <> [] || !expired) loop;
  Eventloop.cancel guard;
  check Alcotest.(list int) "handler ran for the valid request only" [ 2 ]
    !order;
  (match !replies with
   | [ Ok (Xrl_wire.Reply { seq = 2; error = Xrl_error.Ok_xrl; _ }) ] -> ()
   | _ -> Alcotest.fail "expected one Ok reply, to seq 2");
  Sockbuf.close conn;
  Xrl_router.shutdown adder;
  Xrl_router.shutdown caller

let test_resolve_failure_surfaces () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"ghost" ~interface:"x" ~method_name:"y" [])
  in
  (match err with
   | Xrl_error.Resolve_failed _ -> ()
   | e -> Alcotest.failf "expected Resolve_failed, got %s" (Xrl_error.to_string e));
  Xrl_router.shutdown caller

let test_key_enforcement () =
  (* Calling with a resolved XRL that has a wrong key must be
     rejected: you cannot bypass the Finder. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let adder = make_adder finder loop in
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  (* Learn the transport address by resolving legitimately... *)
  let r = Result.get_ok (Finder.resolve finder (add_xrl 1 1)) in
  (* ...then forge a call with a corrupted key. *)
  let forged =
    Xrl.make ~protocol:r.Finder.family ~target:r.Finder.address
      ~interface:"math"
      ~method_name:"add@00000000000000000000000000000000"
      [ Xrl_atom.u32 "a" 1; Xrl_atom.u32 "b" 1 ]
  in
  let err, _ = Xrl_router.call_blocking caller forged in
  (match err with
   | Xrl_error.No_such_method _ -> ()
   | e -> Alcotest.failf "forged call got %s" (Xrl_error.to_string e));
  Xrl_router.shutdown adder;
  Xrl_router.shutdown caller

(* A warm intra-process call shaped like rib/add_route (four arguments,
   a no-op handler, resolution and sender from the caches) finds its
   handler, sender and resolution without building a string. Ceilings
   in minor words per call, over 10,000 calls: 154 and 174 words when
   each lookup concatenated its key. A call that misses the fast path
   still gets the same error text. *)
let test_warm_call_allocation () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let rib = Xrl_router.create finder loop ~class_name:"rib" () in
  Xrl_router.add_handler rib ~interface:"rib" ~method_name:"add_route"
    (fun _ reply -> reply Xrl_error.Ok_xrl []);
  let caller = Xrl_router.create finder loop ~class_name:"bgp" () in
  let xrl =
    Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_route"
      [ Xrl_atom.txt "protocol" "ebgp";
        Xrl_atom.ipv4net "net" (Ipv4net.of_string_exn "10.1.0.0/16");
        Xrl_atom.ipv4 "nexthop" (Ipv4.of_string_exn "10.0.0.1");
        Xrl_atom.u32 "metric" 0 ]
  in
  let ok = ref 0 in
  let cb err _ = if Xrl_error.is_ok err then incr ok in
  let words_per_call ?retry () =
    Xrl_router.send ?retry caller xrl cb;
    let n = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do Xrl_router.send ?retry caller xrl cb done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let plain = words_per_call () in
  let retried = words_per_call ~retry:Xrl_router.default_retry () in
  check Alcotest.int "every call answered" 20_002 !ok;
  check Alcotest.bool (Printf.sprintf "%.1f words per call" plain) true
    (plain <= 90.5);
  check Alcotest.bool
    (Printf.sprintf "%.1f words per call with default_retry" retried)
    true (retried <= 110.5);
  let r = Result.get_ok (Finder.resolve finder xrl) in
  let call ~interface method_name =
    let resolved =
      Xrl.make ~protocol:r.Finder.family ~target:r.Finder.address ~interface
        ~method_name []
    in
    Xrl_error.to_string (fst (Xrl_router.call_blocking caller resolved))
  in
  let expect what want got = check Alcotest.string what want got in
  expect "wrong interface"
    (Xrl_error.to_string (Xrl_error.No_such_method "fea/1.0/add_route"))
    (call ~interface:"fea" r.Finder.keyed_method);
  expect "bad key"
    (Xrl_error.to_string
       (Xrl_error.No_such_method
          "rib/1.0/add_route (bad or missing dispatch key; resolve via the \
           Finder)"))
    (call ~interface:"rib" "add_route@00000000000000000000000000000000");
  Xrl_router.shutdown rib;
  Xrl_router.shutdown caller

let test_shutdown_invalidates () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let adder = make_adder finder loop in
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let err, _ = Xrl_router.call_blocking caller (add_xrl 1 2) in
  check Alcotest.bool "first call ok" true (Xrl_error.is_ok err);
  Xrl_router.shutdown adder;
  let err, _ = Xrl_router.call_blocking caller (add_xrl 1 2) in
  check Alcotest.bool "fails after shutdown" false (Xrl_error.is_ok err);
  (* A reincarnated adder is found again (cache was invalidated). *)
  let adder2 = make_adder finder loop in
  let err, args = Xrl_router.call_blocking caller (add_xrl 2 3) in
  check Alcotest.bool "reincarnation found" true (Xrl_error.is_ok err);
  check Alcotest.int "sum" 5 (Xrl_atom.get_u32 args "sum");
  Xrl_router.shutdown adder2;
  Xrl_router.shutdown caller

let test_deferred_reply () =
  (* Handlers may reply asynchronously. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let slowpoke = Xrl_router.create finder loop ~class_name:"slowpoke" () in
  Xrl_router.add_handler slowpoke ~interface:"slow" ~method_name:"echo"
    (fun args reply ->
       ignore
         (Eventloop.after loop 5.0 (fun () -> reply Xrl_error.Ok_xrl args)));
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let err, args =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"slowpoke" ~interface:"slow" ~method_name:"echo"
         [ Xrl_atom.txt "x" "later" ])
  in
  check Alcotest.bool "ok" true (Xrl_error.is_ok err);
  check Alcotest.string "echoed" "later" (Xrl_atom.get_txt args "x");
  check (Alcotest.float 1e-9) "took simulated 5s" 5.0 (Eventloop.now loop);
  Xrl_router.shutdown slowpoke;
  Xrl_router.shutdown caller

(* --- Route_runs: the outbox contract ----------------------------------- *)

(* An outbox on a router of class "src" towards class "dst", for routes
   that are a prefix and the table they belong to; [same] keeps tables
   apart. Each call of [send] logs its lane, verb, routes and the
   changes still queued behind it. *)
let outbox_world ?(bulk_slice = 2) () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let src = Xrl_router.create finder loop ~class_name:"src" () in
  let dst = Xrl_router.create finder loop ~class_name:"dst" () in
  let log = ref [] in
  let ob = ref None in
  let send lane (verb : Telemetry.Profile.verb) routes =
    log :=
      Printf.sprintf "%s %s %s (%d left)"
        (match lane with Laneq.Urgent -> "urgent" | Bulk -> "bulk")
        (match verb with Add -> "add" | Delete -> "delete")
        (String.concat " "
           (List.map (fun (n, tbl) -> Ipv4net.to_string n ^ ":" ^ tbl) routes))
        (Route_runs.length (Option.get !ob))
      :: !log
  in
  ob :=
    Some
      (Route_runs.outbox ~same:(fun (_, a) (_, b) -> String.equal a b) src
         ~peer:"dst" ~name:"test.out_q" ~bulk_slice ~net:fst
         ~queued:"test_queued" ~sent:"test_sent" ~span:"test.send" send);
  let sent () =
    let l = List.rev !log in
    log := [];
    l
  in
  (loop, dst, Option.get !ob, sent)

let r n = (net n, "a")

let test_outbox_drops_while_dead () =
  let loop, dst, ob, sent = outbox_world () in
  Route_runs.push ob Laneq.Urgent Laneq.Add (r "10.1.0.0/16");
  check Alcotest.int "queued while live" 1 (Route_runs.length ob);
  (* Queued before the death: dropped at the flush, not sent. *)
  Xrl_router.shutdown dst;
  Eventloop.run loop;
  check Alcotest.(list string) "nothing sent" [] (sent ());
  check Alcotest.int "dropped at the flush" 0 (Route_runs.length ob);
  Route_runs.push ob Laneq.Urgent Laneq.Add (r "10.2.0.0/16");
  check Alcotest.int "a push while dead is dropped" 0 (Route_runs.length ob);
  Eventloop.run loop;
  check Alcotest.(list string) "still nothing sent" [] (sent ())

let test_outbox_replay () =
  let loop, _, ob, sent = outbox_world ~bulk_slice:10 () in
  Route_runs.push ob Laneq.Urgent Laneq.Delete (r "10.1.0.0/16");
  Route_runs.push ob Laneq.Urgent Laneq.Add (r "10.9.0.0/16");
  let n =
    Route_runs.replay ob (fun add ->
        add (r "10.1.0.0/16");
        add (r "10.2.0.0/16"))
  in
  check Alcotest.int "replay counts its adds" 2 n;
  check Alcotest.int "and replaces the queue" 2 (Route_runs.length ob);
  Eventloop.run loop;
  check Alcotest.(list string) "one bulk run of adds"
    [ "bulk add 10.1.0.0/16:a 10.2.0.0/16:a (0 left)" ]
    (sent ())

(* A run holds one verb (a replacement is an add) and one table; a
   change folds into the one pending for its prefix only within a
   table. *)
let test_outbox_runs_and_merges () =
  let loop, _, ob, sent = outbox_world () in
  let push change route = Route_runs.push ob Laneq.Urgent change route in
  push Laneq.Add (r "10.1.0.0/16");
  push Laneq.Replace (r "10.2.0.0/16");
  push Laneq.Add (net "10.3.0.0/16", "b");
  push Laneq.Delete (r "10.4.0.0/16");
  push Laneq.Add (r "10.5.0.0/16");
  (* Folds: an add then a delete of 10.5 cancels; a delete from table
     b is refused by a's pending add of 10.1 and queues behind. *)
  push Laneq.Delete (r "10.5.0.0/16");
  push Laneq.Delete (net "10.1.0.0/16", "b");
  check Alcotest.int "queued" 5 (Route_runs.length ob);
  Eventloop.run loop;
  check Alcotest.(list string) "runs"
    [ "urgent add 10.1.0.0/16:a 10.2.0.0/16:a (0 left)";
      "urgent add 10.3.0.0/16:b (0 left)";
      "urgent delete 10.4.0.0/16:a (0 left)";
      "urgent delete 10.1.0.0/16:b (0 left)" ]
    (sent ())

let test_outbox_slices_bulk () =
  let loop, _, ob, sent = outbox_world ~bulk_slice:2 () in
  List.iter
    (fun n -> Route_runs.push ob Laneq.Bulk Laneq.Add (r n))
    [ "10.1.0.0/16"; "10.2.0.0/16"; "10.3.0.0/16" ];
  Route_runs.push ob Laneq.Urgent Laneq.Add (r "10.9.0.0/16");
  check Alcotest.bool "one flush" true (Eventloop.run_once loop);
  check Alcotest.(list string) "urgent first, then one bulk slice"
    [ "urgent add 10.9.0.0/16:a (1 left)";
      "bulk add 10.1.0.0/16:a 10.2.0.0/16:a (1 left)" ]
    (sent ());
  check Alcotest.bool "the rest re-deferred" true (Eventloop.run_once loop);
  check Alcotest.(list string) "next turn"
    [ "bulk add 10.3.0.0/16:a (0 left)" ]
    (sent ())

let test_outbox_gauges () =
  Telemetry.set_enabled true;
  let loop, _, ob, _ = outbox_world ~bulk_slice:1 () in
  let read name =
    int_of_float (Telemetry.gauge_value (Telemetry.gauge ("test.out_q." ^ name)))
  in
  let gauges () = (read "depth", read "urgent", read "bulk") in
  let g = Alcotest.(triple int int int) in
  Route_runs.push ob Laneq.Urgent Laneq.Add (r "10.1.0.0/16");
  Route_runs.push ob Laneq.Bulk Laneq.Add (r "10.2.0.0/16");
  Route_runs.push ob Laneq.Bulk Laneq.Add (r "10.3.0.0/16");
  check g "after the pushes" (3, 1, 2) (gauges ());
  ignore (Eventloop.run_once loop);
  check g "after one slice" (1, 0, 1) (gauges ());
  Route_runs.clear ob;
  check g "after a clear" (0, 0, 0) (gauges ());
  ignore (Route_runs.replay ob (fun add -> add (r "10.4.0.0/16")));
  check g "after a replay" (1, 0, 1) (gauges ());
  Eventloop.run loop;
  check g "drained" (0, 0, 0) (gauges ())

let () =
  Alcotest.run "xorp_xrl"
    [
      ( "route_runs",
        [
          Alcotest.test_case "outbox drops while the peer is dead" `Quick
            test_outbox_drops_while_dead;
          Alcotest.test_case "outbox replay" `Quick test_outbox_replay;
          Alcotest.test_case "outbox runs and merges" `Quick
            test_outbox_runs_and_merges;
          Alcotest.test_case "outbox slices bulk" `Quick
            test_outbox_slices_bulk;
          Alcotest.test_case "outbox gauges" `Quick test_outbox_gauges;
        ] );
      ( "atoms",
        [
          Alcotest.test_case "text form" `Quick test_atom_text;
          Alcotest.test_case "text roundtrip" `Quick test_atom_text_roundtrip;
          Alcotest.test_case "rejects junk" `Quick test_atom_rejects;
          Alcotest.test_case "typed getters" `Quick test_atom_getters;
        ] );
      ( "xrl_syntax",
        [
          Alcotest.test_case "paper example" `Quick test_xrl_text;
          Alcotest.test_case "parse" `Quick test_xrl_parse;
          Alcotest.test_case "parse resolved" `Quick test_xrl_parse_resolved;
          Alcotest.test_case "parse no args" `Quick test_xrl_parse_no_args;
          Alcotest.test_case "rejects junk" `Quick test_xrl_rejects;
          Alcotest.test_case "roundtrip" `Quick test_xrl_text_roundtrip;
        ] );
      ( "wire",
        Alcotest.test_case "rejects garbage" `Quick test_wire_garbage
        :: Alcotest.test_case "kind-2 frame decodes to Error" `Quick
             test_wire_kind2_rejected
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_atom_text_roundtrip; prop_xrl_text_roundtrip_with_args;
               prop_wire_request_roundtrip; prop_wire_reply_roundtrip;
               prop_wire_roundtrip_and_truncation ] );
      ( "finder",
        [
          Alcotest.test_case "register and resolve" `Quick
            test_finder_register_resolve;
          Alcotest.test_case "resolve failures" `Quick
            test_finder_resolve_failures;
          Alcotest.test_case "sole instance" `Quick test_finder_sole;
          Alcotest.test_case "lifetime events" `Quick
            test_finder_lifetime_events;
          Alcotest.test_case "family preference" `Quick
            test_finder_family_preference;
          Alcotest.test_case "keys match the printf formula" `Quick
            test_finder_keys_match_printf;
        ] );
      ( "watch_peer",
        [
          Alcotest.test_case "begun while live calls nothing" `Quick
            test_watch_peer_begun_live;
          Alcotest.test_case "begun while down: rebirth one turn later"
            `Quick test_watch_peer_begun_down;
          Alcotest.test_case "death only when the last instance dies" `Quick
            test_watch_peer_last_death;
          Alcotest.test_case "birth and death in one turn call nothing"
            `Quick test_watch_peer_same_turn;
          Alcotest.test_case "shutdown removes every watch" `Quick
            test_watch_peer_shutdown;
          Alcotest.test_case "peer_live allocates nothing" `Quick
            test_peer_live_allocates_nothing;
        ] );
      ( "calls",
        [
          Alcotest.test_case "intra-process" `Quick test_intra_call;
          Alcotest.test_case "tcp" `Quick test_tcp_call;
          Alcotest.test_case "udp" `Quick test_udp_call;
          Alcotest.test_case "tcp pipelining" `Quick test_tcp_pipelining;
          Alcotest.test_case "tcp keeps fifo order" `Quick
            test_tcp_fifo_order;
          Alcotest.test_case "tcp per-request errors" `Quick
            test_tcp_per_request_errors;
          Alcotest.test_case "tcp listener drops a kind-2 frame" `Quick
            test_tcp_listener_drops_kind2;
          Alcotest.test_case "resolve failure surfaces" `Quick
            test_resolve_failure_surfaces;
          Alcotest.test_case "forged key rejected" `Quick test_key_enforcement;
          Alcotest.test_case "warm call allocation ceiling" `Quick
            test_warm_call_allocation;
          Alcotest.test_case "shutdown and reincarnation" `Quick
            test_shutdown_invalidates;
          Alcotest.test_case "deferred reply" `Quick test_deferred_reply;
        ] );
    ]
