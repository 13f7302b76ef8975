(* Tests for the XRL extensions: the interface-definition layer
   (Xrl_idl), the simulated-network protocol family (Pf_sim), and the
   kill protocol family (Pf_kill). *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* --- IDL ---------------------------------------------------------------- *)

let demo_iface =
  Xrl_idl.iface ~name:"demo"
    [ Xrl_idl.meth "add"
        ~args:[ Xrl_idl.arg "a" Xrl_idl.A_u32; Xrl_idl.arg "b" Xrl_idl.A_u32;
                Xrl_idl.arg ~optional:true "note" Xrl_idl.A_txt ]
        ~returns:[ Xrl_idl.arg "sum" Xrl_idl.A_u32 ] ]

let test_idl_check_args () =
  let specs = (Option.get (Xrl_idl.find_method demo_iface "add")).Xrl_idl.m_args in
  let ok args = Xrl_idl.check_args ~what:"t" specs args in
  check Alcotest.bool "all present" true
    (ok [ Xrl_atom.u32 "a" 1; Xrl_atom.u32 "b" 2 ] = Ok ());
  check Alcotest.bool "optional supplied" true
    (ok [ Xrl_atom.u32 "a" 1; Xrl_atom.u32 "b" 2; Xrl_atom.txt "note" "x" ] = Ok ());
  (match ok [ Xrl_atom.u32 "a" 1 ] with
   | Error msg ->
     check Alcotest.bool "names the missing arg" true
       (Astring.String.is_infix ~affix:"\"b\"" msg)
   | Ok () -> Alcotest.fail "missing arg accepted");
  (match ok [ Xrl_atom.u32 "a" 1; Xrl_atom.txt "b" "two" ] with
   | Error msg ->
     check Alcotest.bool "names the type clash" true
       (Astring.String.is_infix ~affix:"expected u32" msg)
   | Ok () -> Alcotest.fail "type clash accepted");
  match ok [ Xrl_atom.u32 "a" 1; Xrl_atom.u32 "b" 2; Xrl_atom.u32 "z" 3 ] with
  | Error msg ->
    check Alcotest.bool "names the unknown arg" true
      (Astring.String.is_infix ~affix:"\"z\"" msg)
  | Ok () -> Alcotest.fail "unknown arg accepted"

let test_idl_validate_call () =
  let good =
    Xrl.make ~target:"demo" ~interface:"demo" ~method_name:"add"
      [ Xrl_atom.u32 "a" 1; Xrl_atom.u32 "b" 2 ]
  in
  check Alcotest.bool "valid call" true
    (Xrl_idl.validate_call demo_iface good = Ok ());
  let wrong_method =
    Xrl.make ~target:"demo" ~interface:"demo" ~method_name:"frobnicate" []
  in
  check Alcotest.bool "unknown method" true
    (Result.is_error (Xrl_idl.validate_call demo_iface wrong_method));
  let wrong_iface =
    Xrl.make ~target:"demo" ~interface:"other" ~method_name:"add" []
  in
  check Alcotest.bool "interface mismatch" true
    (Result.is_error (Xrl_idl.validate_call demo_iface wrong_iface))

let test_idl_wrap_handler_end_to_end () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let target = Xrl_router.create finder loop ~class_name:"demo" () in
  let handler_ran = ref 0 in
  Xrl_idl.add_checked_handler target demo_iface ~method_name:"add"
    (fun args reply ->
       incr handler_ran;
       let a = Xrl_atom.get_u32 args "a" and b = Xrl_atom.get_u32 args "b" in
       (* Contract violation on purpose when a = 999: reply has the
          wrong return name. *)
       if a = 999 then reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "oops" 0 ]
       else reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "sum" (a + b) ]);
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let call args =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"demo" ~interface:"demo" ~method_name:"add" args)
  in
  (* good call *)
  let err, ret = call [ Xrl_atom.u32 "a" 20; Xrl_atom.u32 "b" 22 ] in
  check Alcotest.bool "ok" true (Xrl_error.is_ok err);
  check Alcotest.int "sum" 42 (Xrl_atom.get_u32 ret "sum");
  (* bad args rejected BEFORE the handler runs *)
  let before = !handler_ran in
  let err, _ = call [ Xrl_atom.txt "a" "x"; Xrl_atom.u32 "b" 2 ] in
  (match err with
   | Xrl_error.Bad_args _ -> ()
   | e -> Alcotest.failf "expected Bad_args, got %s" (Xrl_error.to_string e));
  check Alcotest.int "handler never ran" before !handler_ran;
  (* return-contract violation becomes Internal_error *)
  let err, _ = call [ Xrl_atom.u32 "a" 999; Xrl_atom.u32 "b" 0 ] in
  match err with
  | Xrl_error.Internal_error _ -> ()
  | e -> Alcotest.failf "expected Internal_error, got %s" (Xrl_error.to_string e)

let test_idl_builtin_specs_match_implementations () =
  (* Pin the live components to their published interface specs: a call
     that the spec accepts must succeed against the real component, and
     a call the spec rejects must also be rejected by the component. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let _fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  ignore rib;
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let rib_iface = Option.get (Xrl_idl.find_interface "rib") in
  let good =
    Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_route"
      [ Xrl_atom.txt "protocol" "static";
        Xrl_atom.ipv4net "net" (net "10.0.0.0/8");
        Xrl_atom.ipv4 "nexthop" (addr "192.0.2.1") ]
  in
  check Alcotest.bool "spec accepts" true
    (Xrl_idl.validate_call rib_iface good = Ok ());
  let err, _ = Xrl_router.call_blocking caller good in
  check Alcotest.bool "implementation accepts" true (Xrl_error.is_ok err);
  let bad =
    Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"add_route"
      [ Xrl_atom.txt "protocol" "static";
        Xrl_atom.txt "net" "10.0.0.0/8" (* wrong type *);
        Xrl_atom.ipv4 "nexthop" (addr "192.0.2.1") ]
  in
  check Alcotest.bool "spec rejects" true
    (Result.is_error (Xrl_idl.validate_call rib_iface bad));
  let err, _ = Xrl_router.call_blocking caller bad in
  check Alcotest.bool "implementation rejects too" false (Xrl_error.is_ok err)

let test_idl_render () =
  let rendered = Xrl_idl.to_string demo_iface in
  check Alcotest.bool "mentions interface" true
    (Astring.String.is_infix ~affix:"interface demo/1.0" rendered);
  check Alcotest.bool "mentions return" true
    (Astring.String.is_infix ~affix:"sum:u32" rendered);
  check Alcotest.int "eleven builtin interfaces" 11
    (List.length Xrl_idl.builtin_interfaces)

(* --- Finder ACLs (§7) ------------------------------------------------------ *)

let test_finder_acls () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let _fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  ignore rib;
  (* An experimental protocol allowed to talk only to rib/rib. *)
  let experimental =
    Xrl_router.create finder loop ~class_name:"experimental" ()
  in
  Finder.restrict finder ~class_name:"experimental"
    ~allow:[ ("rib", "rib") ];
  let call router xrl = Xrl_router.call_blocking router xrl in
  (* Allowed: querying the RIB. *)
  let err, _ =
    call experimental
      (Xrl.make ~target:"rib" ~interface:"rib" ~method_name:"get_route_count" [])
  in
  check Alcotest.bool "allowed call succeeds" true (Xrl_error.is_ok err);
  (* Denied: touching the FEA directly. *)
  let err, _ =
    call experimental
      (Xrl.make ~target:"fea" ~interface:"fea" ~method_name:"get_fib_size" [])
  in
  (match err with
   | Xrl_error.Resolve_failed msg ->
     check Alcotest.bool "names the denial" true
       (Astring.String.is_infix ~affix:"not permitted" msg)
   | e -> Alcotest.failf "expected Resolve_failed, got %s" (Xrl_error.to_string e));
  (* Denied: even another interface on the allowed component. *)
  let err, _ =
    call experimental
      (Xrl.make ~target:"rib" ~interface:"rib_client"
         ~method_name:"route_info_invalid"
         [ Xrl_atom.ipv4net "valid" (net "10.0.0.0/8") ])
  in
  check Alcotest.bool "other interface denied" false (Xrl_error.is_ok err);
  (* An unrestricted component is unaffected. *)
  let free = Xrl_router.create finder loop ~class_name:"free" () in
  let err, _ =
    call free
      (Xrl.make ~target:"fea" ~interface:"fea" ~method_name:"get_fib_size" [])
  in
  check Alcotest.bool "unrestricted unaffected" true (Xrl_error.is_ok err);
  (* Lifting the restriction restores access (caches invalidated). *)
  Finder.unrestrict finder ~class_name:"experimental";
  let err, _ =
    call experimental
      (Xrl.make ~target:"fea" ~interface:"fea" ~method_name:"get_fib_size" [])
  in
  check Alcotest.bool "access restored" true (Xrl_error.is_ok err)

let test_finder_acl_cache_no_leak () =
  (* A resolution cached before a restriction lands must not keep
     working afterwards. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let _fea = Fea.create finder loop () in
  let experimental =
    Xrl_router.create finder loop ~class_name:"experimental" ()
  in
  let xrl =
    Xrl.make ~target:"fea" ~interface:"fea" ~method_name:"get_fib_size" []
  in
  let err, _ = Xrl_router.call_blocking experimental xrl in
  check Alcotest.bool "works before restriction" true (Xrl_error.is_ok err);
  Finder.restrict finder ~class_name:"experimental" ~allow:[];
  let err, _ = Xrl_router.call_blocking experimental xrl in
  check Alcotest.bool "denied after restriction" false (Xrl_error.is_ok err)

(* --- Finder over XRLs ---------------------------------------------------- *)

let test_finder_addressable_via_xrls () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let _finder_component = Finder_xrl.expose finder loop in
  let demo = Xrl_router.create finder loop ~class_name:"demo" () in
  Xrl_router.add_handler demo ~interface:"demo" ~method_name:"noop"
    (fun _ reply -> reply Xrl_error.Ok_xrl []);
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  (* Resolve a generic XRL through the Finder's own XRL interface. *)
  let err, args =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"finder" ~interface:"finder" ~method_name:"resolve"
         [ Xrl_atom.txt "xrl" "finder://demo/demo/1.0/noop" ])
  in
  check Alcotest.bool "resolve ok" true (Xrl_error.is_ok err);
  check Alcotest.string "family" "x-intra" (Xrl_atom.get_txt args "family");
  check Alcotest.bool "keyed method" true
    (Astring.String.is_infix ~affix:"noop@" (Xrl_atom.get_txt args "keyed_method"));
  (* And the returned resolution is directly dispatchable. *)
  let resolved =
    Xrl.make ~protocol:"x-intra"
      ~target:(Xrl_atom.get_txt args "address")
      ~interface:"demo"
      ~method_name:(Xrl_atom.get_txt args "keyed_method")
      []
  in
  let err, _ = Xrl_router.call_blocking caller resolved in
  check Alcotest.bool "dispatch of resolved form" true (Xrl_error.is_ok err);
  (* live_instances *)
  let err, args =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"finder" ~interface:"finder"
         ~method_name:"live_instances" [ Xrl_atom.txt "class" "demo" ])
  in
  check Alcotest.bool "instances ok" true (Xrl_error.is_ok err);
  check Alcotest.int "one instance" 1
    (List.length (Xrl_atom.get_list args "instances"));
  (* unresolvable target reported cleanly *)
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"finder" ~interface:"finder" ~method_name:"resolve"
         [ Xrl_atom.txt "xrl" "finder://ghost/x/1.0/y" ])
  in
  match err with
  | Xrl_error.Resolve_failed _ -> ()
  | e -> Alcotest.failf "expected Resolve_failed, got %s" (Xrl_error.to_string e)

(* --- Pf_sim ----------------------------------------------------------------- *)

let sim_pair () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create ~default_latency:0.002 loop in
  let finder = Finder.create () in
  (* Machine B hosts the target; machine A hosts the caller. *)
  let fam_b = Pf_sim.family netsim ~local_addr:(addr "10.0.0.2") in
  let fam_a = Pf_sim.family netsim ~local_addr:(addr "10.0.0.1") in
  let target =
    Xrl_router.create ~families:[ fam_b ] finder loop ~class_name:"remote" ()
  in
  Xrl_router.add_handler target ~interface:"math" ~method_name:"add"
    (fun args reply ->
       let a = Xrl_atom.get_u32 args "a" and b = Xrl_atom.get_u32 args "b" in
       reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "sum" (a + b) ]);
  let caller =
    Xrl_router.create ~families:[ fam_a ] ~family_pref:[ "sim" ] finder loop
      ~class_name:"caller" ()
  in
  (loop, target, caller)

let test_sim_family_cross_machine_call () =
  let loop, _target, caller = sim_pair () in
  let t0 = Eventloop.now loop in
  let err, ret =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"remote" ~interface:"math" ~method_name:"add"
         [ Xrl_atom.u32 "a" 40; Xrl_atom.u32 "b" 2 ])
  in
  check Alcotest.bool ("ok: " ^ Xrl_error.to_string err) true (Xrl_error.is_ok err);
  check Alcotest.int "sum" 42 (Xrl_atom.get_u32 ret "sum");
  (* The call crossed the simulated network: at least connect (2 hops)
     plus request plus reply at 2 ms per hop. *)
  let elapsed = Eventloop.now loop -. t0 in
  check Alcotest.bool
    (Printf.sprintf "took simulated network time (%.3fs)" elapsed)
    true (elapsed >= 0.006)

let test_sim_family_pipelines () =
  let loop, _target, caller = sim_pair () in
  let n = 100 in
  let got = ref 0 in
  let wrong = ref 0 in
  for i = 1 to n do
    Xrl_router.send caller
      (Xrl.make ~target:"remote" ~interface:"math" ~method_name:"add"
         [ Xrl_atom.u32 "a" i; Xrl_atom.u32 "b" i ])
      (fun err ret ->
         incr got;
         if (not (Xrl_error.is_ok err)) || Xrl_atom.get_u32 ret "sum" <> 2 * i
         then incr wrong)
  done;
  let t0 = Eventloop.now loop in
  Eventloop.run ~until:(fun () -> !got >= n) loop;
  check Alcotest.int "all replies" n !got;
  check Alcotest.int "all correct" 0 !wrong;
  (* Pipelined: 100 calls over one connection take ~connect + 2 hops,
     not 100 round trips. *)
  let elapsed = Eventloop.now loop -. t0 in
  check Alcotest.bool
    (Printf.sprintf "pipelined (%.3fs for %d calls)" elapsed n)
    true
    (elapsed < 0.050)

let test_sim_family_target_death () =
  let loop, target, caller = sim_pair () in
  Xrl_router.shutdown target;
  let err, _ =
    Xrl_router.call_blocking caller
      (Xrl.make ~target:"remote" ~interface:"math" ~method_name:"add"
         [ Xrl_atom.u32 "a" 1; Xrl_atom.u32 "b" 1 ])
  in
  check Alcotest.bool "fails cleanly" false (Xrl_error.is_ok err);
  ignore loop

(* --- Pf_kill ----------------------------------------------------------------- *)

let test_kill_family_delivers () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let received = ref [] in
  let victim =
    Xrl_router.create
      ~families:[ Pf_intra.family; Pf_kill.family ]
      finder loop ~class_name:"victim" ()
  in
  Pf_kill.make_signalable victim ~on_signal:(fun s -> received := s :: !received);
  let killer =
    Xrl_router.create
      ~families:[ Pf_intra.family; Pf_kill.family ]
      ~family_pref:[ "kill" ] finder loop ~class_name:"killer" ()
  in
  let outcome = ref None in
  Pf_kill.send_signal killer ~target:"victim" ~signal:"TERM" (fun err ->
      outcome := Some err);
  Eventloop.run ~until:(fun () -> !outcome <> None) loop;
  check Alcotest.bool "delivered ok" true
    (match !outcome with Some e -> Xrl_error.is_ok e | None -> false);
  check (Alcotest.list Alcotest.string) "signal received" [ "TERM" ] !received

let test_kill_family_is_restrictive () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let victim =
    Xrl_router.create
      ~families:[ Pf_kill.family ]
      finder loop ~class_name:"victim" ()
  in
  Pf_kill.make_signalable victim ~on_signal:(fun _ -> ());
  (* It also (unwisely) exposes a data method over the kill family. *)
  Xrl_router.add_handler victim ~interface:"data" ~method_name:"leak"
    (fun _ reply -> reply Xrl_error.Ok_xrl [ Xrl_atom.txt "secret" "hunter2" ]);
  let killer =
    Xrl_router.create ~families:[ Pf_kill.family ] ~family_pref:[ "kill" ]
      finder loop ~class_name:"killer" ()
  in
  (* Unknown signal refused. *)
  let outcome = ref None in
  Pf_kill.send_signal killer ~target:"victim" ~signal:"KILLALL" (fun err ->
      outcome := Some err);
  Eventloop.run ~until:(fun () -> !outcome <> None) loop;
  (match !outcome with
   | Some (Xrl_error.Bad_args _ | Xrl_error.No_such_method _) ->
     (* Refused either by the Finder (no such registered signal) or by
        the family's own validation. *)
     ()
   | Some e -> Alcotest.failf "expected refusal, got %s" (Xrl_error.to_string e)
   | None -> Alcotest.fail "no outcome");
  (* Non-signal traffic cannot ride the kill family. *)
  let err, _ =
    Xrl_router.call_blocking killer
      (Xrl.make ~target:"victim" ~interface:"data" ~method_name:"leak" [])
  in
  match err with
  | Xrl_error.Bad_args _ -> ()
  | e -> Alcotest.failf "kill family leaked data: %s" (Xrl_error.to_string e)

(* --- Wire re-encode stability (property) -------------------------------- *)

(* Arbitrary atoms: names from the unreserved lowercase alphabet (the
   constructors reject [:=&?,/%]), values over every constructor with
   one level of list nesting (lists nest on the wire, so include one
   nested layer too). *)
let gen_atom =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let scalar =
    oneof
      [ map (fun n -> Xrl_atom.U32 (n land 0xFFFFFFFF)) nat;
        map (fun n -> Xrl_atom.I32 n) small_signed_int;
        map (fun n -> Xrl_atom.U64 (Int64.of_int n)) nat;
        map (fun s -> Xrl_atom.Txt s) (small_string ~gen:printable);
        map (fun b -> Xrl_atom.Bool b) bool;
        map
          (fun (a, b) -> Xrl_atom.Ipv4_v (Ipv4.of_octets a b a b))
          (pair (int_bound 255) (int_bound 255));
        map
          (fun (a, len) ->
             Xrl_atom.Ipv4net_v (Ipv4net.make (Ipv4.of_octets a 0 0 0) len))
          (pair (int_bound 255) (int_bound 8));
        map (fun s -> Xrl_atom.Binary s) (small_string ~gen:(char_range '\000' '\255'));
      ]
  in
  let value =
    oneof
      [ scalar;
        map (fun vs -> Xrl_atom.List vs) (list_size (int_bound 3) scalar);
        map
          (fun vs -> Xrl_atom.List [ Xrl_atom.List vs; Xrl_atom.Bool true ])
          (list_size (int_bound 2) scalar);
      ]
  in
  map2 Xrl_atom.make name value

let gen_message =
  let open QCheck.Gen in
  let atoms = list_size (int_bound 4) gen_atom in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let request =
    map2
      (fun seq (((target, iface), meth), args) ->
         Xrl_wire.Request
           { seq;
             xrl = Xrl.make ~target ~interface:iface ~method_name:meth args })
      nat
      (pair (pair (pair name name) name) atoms)
  in
  let reply =
    map2
      (fun (seq, code) (note, args) ->
         Xrl_wire.Reply { seq; error = Xrl_error.of_code code note; args })
      (pair nat (int_bound 9))
      (pair (small_string ~gen:printable) atoms)
  in
  oneof [ request; reply ]

(* Decoding may normalise (e.g. error notes, argument canonical forms),
   so the invariant is re-encode stability, not structural equality:
   encode . decode is the identity on encoder output. *)
let prop_wire_reencode_stable =
  QCheck.Test.make ~name:"wire encode/decode/encode is stable" ~count:500
    (QCheck.make gen_message)
    (fun msg ->
       let bytes = Xrl_wire.encode msg in
       match Xrl_wire.decode bytes with
       | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
       | Ok decoded -> String.equal (Xrl_wire.encode decoded) bytes)

let () =
  Alcotest.run "xorp_xrl_ext"
    [
      ( "idl",
        [
          Alcotest.test_case "check_args" `Quick test_idl_check_args;
          Alcotest.test_case "validate_call" `Quick test_idl_validate_call;
          Alcotest.test_case "checked handler end to end" `Quick
            test_idl_wrap_handler_end_to_end;
          Alcotest.test_case "builtin specs match implementations" `Quick
            test_idl_builtin_specs_match_implementations;
          Alcotest.test_case "rendering and registry" `Quick test_idl_render;
        ] );
      ( "acls",
        [
          Alcotest.test_case "per-class restriction" `Quick test_finder_acls;
          Alcotest.test_case "no stale cache leak" `Quick
            test_finder_acl_cache_no_leak;
        ] );
      ( "finder_xrl",
        [
          Alcotest.test_case "finder addressable via XRLs" `Quick
            test_finder_addressable_via_xrls;
        ] );
      ( "pf_sim",
        [
          Alcotest.test_case "cross-machine call" `Quick
            test_sim_family_cross_machine_call;
          Alcotest.test_case "pipelining" `Quick test_sim_family_pipelines;
          Alcotest.test_case "target death" `Quick test_sim_family_target_death;
        ] );
      ( "pf_kill",
        [
          Alcotest.test_case "signal delivery" `Quick test_kill_family_delivers;
          Alcotest.test_case "restrictive transport" `Quick
            test_kill_family_is_restrictive;
        ] );
      ("wire", List.map Seeded.qcheck [ prop_wire_reencode_stable ]);
    ]
