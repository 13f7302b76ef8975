(* The element-graph data plane: config grammar (QCheck parse/print
   stability + malformed-graph rejection), element runtime semantics,
   and the dataplane/0.1 XRL surface — including inserting an element
   into a running graph without dropping packets. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let check_err what affix = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
    if not (Astring.String.is_infix ~affix msg) then
      Alcotest.failf "%s: error %S does not mention %S" what msg affix

(* --- grammar: random well-formed configs ----------------------------- *)

(* Generates a random valid graph as text, with randomized surface
   syntax (optional [0] ports, chains vs single edges, comments,
   spacing) so the parser is exercised beyond the canonical form. *)
let gen_config : string QCheck.Gen.t =
 fun st ->
  let rint n = Random.State.int st n in
  let decls = Buffer.create 128 in
  let edges = Buffer.create 128 in
  let counter = ref 0 in
  let fresh k =
    incr counter;
    Printf.sprintf "%s%d" k !counter
  in
  let decl name klass args =
    let rendered =
      match args with
      | [] -> if rint 2 = 0 then klass else klass ^ "()"
      | _ -> Printf.sprintf "%s(%s)" klass (String.concat ", " args)
    in
    Buffer.add_string decls
      (Printf.sprintf "%s %s:: %s\n" name (if rint 2 = 0 then "" else " ")
         rendered);
    if rint 6 = 0 then Buffer.add_string decls "# a comment line\n"
  in
  let port p = if p = 0 && rint 2 = 0 then "" else Printf.sprintf "[%d]" p in
  let edge a ap b bp =
    Buffer.add_string edges
      (Printf.sprintf "%s%s %s %s%s\n" a (port ap)
         (if rint 2 = 0 then "->" else " -> ")
         (port bp) b)
  in
  let rec grow src sport depth =
    match if depth <= 0 then rint 2 else rint 6 with
    | 0 ->
      let d = fresh "drop" in
      decl d "Drop" (if rint 2 = 0 then [] else [ "discard" ]);
      edge src sport d 0
    | 1 ->
      let q = fresh "q" and s = fresh "sched" and o = fresh "out" in
      decl q "Queue" [ string_of_int (1 + rint 512) ];
      decl s "Scheduler" [ string_of_int (1 + rint 8) ];
      decl o "ToNetsim" [];
      edge src sport q 0;
      edge q 0 s 0;
      edge s 0 o 0
    | 2 | 3 ->
      let m = fresh "m" in
      let klass =
        match rint 3 with
        | 0 -> "CheckHeader"
        | 1 -> "DecTtl"
        | _ -> "Count"
      in
      decl m klass [];
      edge src sport m 0;
      grow m 0 (depth - 1)
    | 4 ->
      let c = fresh "cls" in
      let k = 1 + rint 3 in
      let args =
        List.init k (fun i ->
            if i = k - 1 && rint 2 = 0 then "-"
            else string_of_int (rint 256))
      in
      decl c "Classify" args;
      edge src sport c 0;
      List.iteri (fun i _ -> grow c i (depth - 1)) args
    | _ ->
      let t = fresh "tee" in
      let k = 2 + rint 2 in
      decl t "Tee" [ string_of_int k ];
      edge src sport t 0;
      for i = 0 to k - 1 do
        grow t i (depth - 1)
      done
  in
  let n_sources = 1 + rint 2 in
  for i = 0 to n_sources - 1 do
    let s = fresh "from" in
    decl s "FromNetsim" [ Printf.sprintf "eth%d" i ];
    grow s 0 (1 + rint 3)
  done;
  Buffer.contents decls ^ "\n" ^ Buffer.contents edges

let prop_parse_print_stable =
  QCheck.Test.make ~name:"parse/print/parse is stable" ~count:300
    (QCheck.make ~print:(fun s -> s) gen_config)
    (fun text ->
      match Dataplane.parse text with
      | Error e -> QCheck.Test.fail_reportf "valid config rejected: %s" e
      | Ok spec -> (
          let printed = Dataplane.print spec in
          match Dataplane.parse printed with
          | Error e ->
            QCheck.Test.fail_reportf "printed config rejected: %s\n%s" e
              printed
          | Ok spec2 ->
            let again = Dataplane.print spec2 in
            if String.equal printed again then true
            else
              QCheck.Test.fail_reportf
                "print not a fixed point:\n--- first\n%s\n--- second\n%s"
                printed again))

(* --- grammar: malformed graphs are rejected usefully ------------------ *)

let reject what affix config =
  check_err what affix (Dataplane.parse config)

let test_malformed_graphs () =
  reject "unconnected output" "connected 0 times"
    "src :: FromNetsim(eth0)\ncnt :: Count\nsrc -> cnt\n";
  reject "unconnected input" "unconnected"
    "src :: FromNetsim(eth0)\nd :: Drop\ncnt :: Count\nsrc -> d\ncnt -> d\n";
  reject "double-connected output" "connected 2 times"
    "src :: FromNetsim(eth0)\na :: Drop\nb :: Drop\nsrc -> a\nsrc -> b\n";
  reject "cycle without a queue" "cycle"
    "src :: FromNetsim(eth0)\na :: Count\nb :: Count\n\
     src -> a\na -> b\nb -> a\n";
  (* Same shape broken by a queue is legal. *)
  (match
     Dataplane.parse
       "src :: FromNetsim(eth0)\na :: Count\nq :: Queue(8)\n\
        s :: Scheduler(2)\nsrc -> a\na -> q\nq -> s\ns -> a\n"
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "queue-broken cycle rejected: %s" e);
  reject "queue feeding a map element" "Scheduler"
    "src :: FromNetsim(eth0)\nq :: Queue(8)\ncnt :: Count\nd :: Drop\n\
     src -> q\nq -> cnt\ncnt -> d\n";
  reject "scheduler fed by a map element" "Queue"
    "src :: FromNetsim(eth0)\ns :: Scheduler(2)\nd :: Drop\n\
     src -> s\ns -> d\n";
  reject "unknown class" "unknown element class"
    "src :: FromNetsim(eth0)\nx :: Warp\nsrc -> x\n";
  reject "duplicate name" "declared twice"
    "a :: Count\na :: Count\n";
  reject "undeclared element" "undeclared"
    "src :: FromNetsim(eth0)\nsrc -> ghost\n";
  reject "bad argument" "capacity"
    "src :: FromNetsim(eth0)\nq :: Queue(zero)\nsrc -> q\n";
  reject "out-of-range port" "no output port"
    "src :: FromNetsim(eth0)\na :: Drop\nb :: Drop\n\
     src -> a\nsrc[1] -> b\n";
  reject "edge into a source" "takes no input"
    "s1 :: FromNetsim(eth0)\ns2 :: FromNetsim(eth1)\nd :: Drop\n\
     s1 -> s2\ns2 -> d\n";
  reject "empty graph" "empty" "# nothing here\n";
  reject "dangling arrow" "line 1" "a ->\n"

let test_default_config_canonical () =
  let cfg = Dataplane.default_config ~ifaces:[ "eth0"; "eth1" ] in
  match Dataplane.parse cfg with
  | Error e -> Alcotest.failf "default config rejected: %s" e
  | Ok spec ->
    let printed = Dataplane.print spec in
    (match Dataplane.parse printed with
     | Error e -> Alcotest.failf "printed default rejected: %s" e
     | Ok spec2 ->
       check Alcotest.string "fixed point" printed (Dataplane.print spec2));
    check Alcotest.bool "mentions both sources" true
      (Astring.String.is_infix ~affix:"FromNetsim(eth0)" printed
       && Astring.String.is_infix ~affix:"FromNetsim(eth1)" printed)

(* --- element runtime -------------------------------------------------- *)

let mk_dp ?(ifaces = [ "eth0"; "eth1" ]) () =
  let loop = Eventloop.create () in
  let fib = Fib.create () in
  let sent = ref [] in
  let dp =
    Dataplane.create ~loop ~lookup:(Fib.forward fib)
      ~tx:(fun ~ifname ~dst payload -> sent := (ifname, dst, payload) :: !sent)
      ~ifaces ()
  in
  (loop, fib, dp, sent)

let install_exn dp config =
  match Dataplane.install_config dp config with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install failed: %s" e

let inject_exn dp ~ifname pkt =
  match Dataplane.inject dp ~ifname pkt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "inject failed: %s" e

let stat dp name =
  match
    List.find_opt
      (fun s -> String.equal s.Dataplane.st_name name)
      (Dataplane.stats dp)
  with
  | Some s -> s
  | None -> Alcotest.failf "no element %s in stats" name

let add_route fib net_s nh ifname protocol =
  Fib.add fib
    { Fib.net = net net_s; nexthop = addr nh; ifname; protocol }

let test_default_graph_forwards () =
  let loop, fib, dp, sent = mk_dp () in
  install_exn dp (Dataplane.default_config ~ifaces:[ "eth0"; "eth1" ]);
  add_route fib "172.16.0.0/12" "10.1.0.9" "eth1" "static";
  inject_exn dp ~ifname:"eth0"
    (Packet.make ~ttl:64 ~payload:"hello"
       ~src:(addr "10.0.0.7") ~dst:(addr "172.16.5.5") ());
  Eventloop.run_until_idle loop;
  (match !sent with
   | [ (ifname, dst, wire) ] ->
     check Alcotest.string "egress interface" "eth1" ifname;
     check Alcotest.string "sent to the next hop" "10.1.0.9"
       (Ipv4.to_string dst);
     (match Packet.of_wire wire with
      | Ok p ->
        check Alcotest.int "TTL decremented" 63 p.Packet.ttl;
        check Alcotest.string "payload intact" "hello" p.Packet.payload;
        check Alcotest.string "destination intact" "172.16.5.5"
          (Ipv4.to_string p.Packet.dst)
      | Error e -> Alcotest.failf "bad wire form: %s" e)
   | l -> Alcotest.failf "expected 1 transmitted packet, got %d"
            (List.length l));
  (* Counters tell the same story at every stage of the path. *)
  List.iter
    (fun name ->
       check Alcotest.int (name ^ " rx") 1 (stat dp name).Dataplane.st_rx)
    [ "from_eth0"; "cls"; "chk"; "lpm"; "ttl"; "q"; "sched"; "out" ];
  check Alcotest.int "other source idle" 0
    (stat dp "from_eth1").Dataplane.st_rx

let test_drops_counted_per_reason () =
  let loop, fib, dp, sent = mk_dp () in
  install_exn dp (Dataplane.default_config ~ifaces:[ "eth0" ]);
  add_route fib "172.16.0.0/12" "10.1.0.9" "eth1" "static";
  let inject ?(ttl = 64) dst =
    inject_exn dp ~ifname:"eth0"
      (Packet.make ~ttl ~src:(addr "10.0.0.7") ~dst:(addr dst) ())
  in
  inject ~ttl:1 "172.16.5.5" (* dies in DecTtl *);
  inject ~ttl:0 "172.16.5.5" (* dies in CheckHeader *);
  inject "0.0.0.0" (* bad destination *);
  inject "99.9.9.9" (* no route *);
  Eventloop.run_until_idle loop;
  check Alcotest.int "nothing transmitted" 0 (List.length !sent);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "DecTtl drops" [ ("ttl-expired", 1) ] (stat dp "ttl").Dataplane.st_drops;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "CheckHeader drops"
    [ ("bad-dst", 1); ("zero-ttl", 1) ]
    (stat dp "chk").Dataplane.st_drops;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "LpmLookup drops" [ ("no-route", 1) ] (stat dp "lpm").Dataplane.st_drops

let test_classify_and_tee () =
  let loop, _, dp, _ = mk_dp () in
  install_exn dp
    "src :: FromNetsim(eth0)\n\
     cls :: Classify(6, 17, -)\n\
     tcp :: Count\n\
     udp :: Count\n\
     rest :: Count\n\
     tee :: Tee(2)\n\
     d1 :: Drop\nd2 :: Drop\nd3 :: Drop\nd4 :: Drop\n\
     src -> cls\n\
     cls -> tcp -> tee\n\
     cls[1] -> udp -> d2\n\
     cls[2] -> rest -> d3\n\
     tee -> d1\n\
     tee[1] -> d4\n";
  let inject proto =
    inject_exn dp ~ifname:"eth0"
      (Packet.make ~proto ~src:(addr "10.0.0.7") ~dst:(addr "1.2.3.4") ())
  in
  inject 6; inject 6; inject 17; inject 89;
  Eventloop.run_until_idle loop;
  check Alcotest.int "tcp branch" 2 (stat dp "tcp").Dataplane.st_rx;
  check Alcotest.int "udp branch" 1 (stat dp "udp").Dataplane.st_rx;
  check Alcotest.int "wildcard branch" 1 (stat dp "rest").Dataplane.st_rx;
  (* Tee duplicated each tcp packet to both drops. *)
  check Alcotest.int "tee fan-out" 4 (stat dp "tee").Dataplane.st_tx;
  check Alcotest.int "tee copy 1" 2 (stat dp "d1").Dataplane.st_rx;
  check Alcotest.int "tee copy 2" 2 (stat dp "d4").Dataplane.st_rx

let test_queue_overflow_and_drain () =
  let loop, fib, dp, sent = mk_dp () in
  add_route fib "0.0.0.0/0" "10.1.0.9" "eth1" "static";
  install_exn dp
    "src :: FromNetsim(eth0)\n\
     lpm :: LpmLookup\n\
     q :: Queue(2)\n\
     sched :: Scheduler(1)\n\
     out :: ToNetsim\n\
     src -> lpm -> q -> sched -> out\n";
  (* Push five packets without giving the scheduler's deferred event a
     chance to run: the queue holds 2, the rest overflow. *)
  for i = 1 to 5 do
    inject_exn dp ~ifname:"eth0"
      (Packet.make ~payload:(string_of_int i)
         ~src:(addr "10.0.0.7") ~dst:(addr "1.2.3.4") ())
  done;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "overflow counted" [ ("overflow", 3) ] (stat dp "q").Dataplane.st_drops;
  Eventloop.run_until_idle loop;
  check Alcotest.int "queued packets drained in order" 2
    (List.length !sent);
  (match List.rev !sent with
   | (_, _, w1) :: (_, _, w2) :: _ ->
     let payload w =
       match Packet.of_wire w with
       | Ok p -> p.Packet.payload
       | Error e -> Alcotest.fail e
     in
     check Alcotest.string "FIFO first" "1" (payload w1);
     check Alcotest.string "FIFO second" "2" (payload w2)
   | _ -> Alcotest.fail "expected two transmissions");
  check Alcotest.int "queue tx matches" 2 (stat dp "q").Dataplane.st_tx

let test_connected_route_goes_direct () =
  let loop, fib, dp, sent = mk_dp () in
  install_exn dp (Dataplane.default_config ~ifaces:[ "eth0" ]);
  add_route fib "10.2.0.0/16" "10.2.0.1" "eth1" "connected";
  inject_exn dp ~ifname:"eth0"
    (Packet.make ~src:(addr "10.0.0.7") ~dst:(addr "10.2.0.42") ());
  Eventloop.run_until_idle loop;
  match !sent with
  | [ (_, dst, _) ] ->
    check Alcotest.string "delivered to the destination itself" "10.2.0.42"
      (Ipv4.to_string dst)
  | l -> Alcotest.failf "expected 1 packet, got %d" (List.length l)

let test_install_checks_interfaces () =
  let _, _, dp, _ = mk_dp ~ifaces:[ "eth0" ] () in
  check_err "unknown interface" "no such interface"
    (Dataplane.install_config dp
       "src :: FromNetsim(eth9)\nd :: Drop\nsrc -> d\n");
  check_err "duplicate source" "claim"
    (Dataplane.install_config dp
       "a :: FromNetsim(eth0)\nb :: FromNetsim(eth0)\n\
        d1 :: Drop\nd2 :: Drop\na -> d1\nb -> d2\n");
  (* Failed installs leave no graph behind. *)
  check Alcotest.string "no graph installed" "" (Dataplane.config dp)

let test_runtime_insert_and_remove () =
  let loop, fib, dp, sent = mk_dp () in
  install_exn dp (Dataplane.default_config ~ifaces:[ "eth0" ]);
  add_route fib "0.0.0.0/0" "10.1.0.9" "eth1" "static";
  let send () =
    inject_exn dp ~ifname:"eth0"
      (Packet.make ~src:(addr "10.0.0.7") ~dst:(addr "1.2.3.4") ());
    Eventloop.run_until_idle loop
  in
  send ();
  (match
     Dataplane.insert_element dp ~name:"cnt" ~klass:"Count" ~args:[]
       ~after:"chk" ~port:0
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "insert visible in config" true
    (Astring.String.is_infix ~affix:"cnt :: Count" (Dataplane.config dp));
  send ();
  check Alcotest.int "only post-insert packets counted" 1
    (stat dp "cnt").Dataplane.st_rx;
  check Alcotest.int "both packets transmitted" 2 (List.length !sent);
  (match Dataplane.remove_element dp ~name:"cnt" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "removal visible in config" false
    (Astring.String.is_infix ~affix:"cnt" (Dataplane.config dp));
  send ();
  check Alcotest.int "path intact after removal" 3 (List.length !sent);
  (* The pull edge is off limits for push elements. *)
  check_err "insert on queue output" "pull edge"
    (Dataplane.insert_element dp ~name:"x" ~klass:"Count" ~args:[]
       ~after:"q" ~port:0);
  check_err "remove the queue" "push/pull"
    (Dataplane.remove_element dp ~name:"q")

let test_register_map_class () =
  (match
     Dataplane.register_map_class "Mark"
       ~check:(function
         | [ _ ] -> Ok ()
         | _ -> Error "takes one argument (the payload marker)")
       ~make:(fun ~args ~n_out:_ ->
         let marker = List.hd args in
         fun pkt ->
           if String.equal pkt.Packet.payload marker then
             Dataplane.Kill "marked"
           else Dataplane.Emit 0)
   with
   | () -> ());
  let loop, _, dp, _ = mk_dp () in
  install_exn dp
    "src :: FromNetsim(eth0)\nmark :: Mark(evil)\nd :: Drop\n\
     src -> mark -> d\n";
  let inject payload =
    inject_exn dp ~ifname:"eth0"
      (Packet.make ~payload ~src:(addr "10.0.0.7") ~dst:(addr "1.2.3.4") ())
  in
  inject "evil";
  inject "fine";
  Eventloop.run_until_idle loop;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "extension class drops" [ ("marked", 1) ]
    (stat dp "mark").Dataplane.st_drops;
  check Alcotest.int "extension class forwards" 1
    (stat dp "d").Dataplane.st_rx;
  (* Built-ins are protected. *)
  match
    Dataplane.register_map_class "Queue"
      ~check:(fun _ -> Ok ())
      ~make:(fun ~args:_ ~n_out:_ _ -> Dataplane.Emit 0)
  with
  | () -> Alcotest.fail "replacing a built-in was accepted"
  | exception Invalid_argument _ -> ()

(* --- the dataplane/0.1 XRL surface, over a live FEA ------------------- *)

let setup_fea () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let netsim = Netsim.create loop in
  let fea =
    Fea.create
      ~interfaces:[ ("eth0", addr "10.0.0.1"); ("eth1", addr "10.1.0.1") ]
      ~netsim finder loop ()
  in
  let caller = Xrl_router.create finder loop ~class_name:"test" () in
  (loop, netsim, fea, caller)

let dp_xrl method_name args =
  Xrl.make ~target:"fea" ~interface:"dataplane" ~version:"0.1" ~method_name
    args

let call caller xrl =
  let err, args = Xrl_router.call_blocking caller xrl in
  if not (Xrl_error.is_ok err) then
    Alcotest.failf "XRL failed: %s" (Xrl_error.to_string err);
  args

let test_xrl_insert_without_dropping () =
  let loop, netsim, fea, caller = setup_fea () in
  (* A host one hop beyond eth1 receives what the router forwards. *)
  let received = ref [] in
  let receiver =
    Netsim.Dgram.bind netsim ~addr:(addr "10.1.0.99") ~port:Fea.dataplane_port
  in
  Netsim.Dgram.on_receive receiver (fun ~src:_ ~sport:_ payload ->
      match Packet.of_wire payload with
      | Ok p -> received := p.Packet.payload :: !received
      | Error e -> Alcotest.failf "received garbage: %s" e);
  Fib.add (Fea.fib fea)
    { Fib.net = net "172.16.0.0/12"; nexthop = addr "10.1.0.99";
      ifname = "eth1"; protocol = "static" };
  (* A host on the eth0 LAN sends packets into the router. *)
  let sender =
    Netsim.Dgram.bind netsim ~addr:(addr "10.0.0.7") ~port:Fea.dataplane_port
  in
  let send payload =
    Netsim.Dgram.sendto sender ~dst:(addr "10.0.0.1")
      ~dport:Fea.dataplane_port
      (Packet.to_wire
         (Packet.make ~payload ~src:(addr "10.0.0.7")
            ~dst:(addr "172.16.5.5") ()))
  in
  (* Before. *)
  send "before";
  Eventloop.run loop;
  check (Alcotest.list Alcotest.string) "flows before" [ "before" ]
    (List.rev !received);
  (* Stuff packets into the pipeline, then reconfigure while they are
     still queued: the XRL and the queue drain interleave on the same
     loop, which is exactly the "no quiesce needed" claim. *)
  let dp = Option.get (Fea.dataplane fea) in
  for i = 1 to 4 do
    match
      Dataplane.inject dp ~ifname:"eth0"
        (Packet.make ~payload:(Printf.sprintf "inflight%d" i)
           ~src:(addr "10.0.0.7") ~dst:(addr "172.16.5.5") ())
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  ignore
    (call caller
       (dp_xrl "insert_element"
          [ Xrl_atom.txt "name" "audit"; Xrl_atom.txt "klass" "Count";
            Xrl_atom.txt "after" "chk" ]));
  Eventloop.run loop;
  check Alcotest.int "nothing dropped across the reconfiguration" 5
    (List.length !received);
  (* After: the new element is live and counting. *)
  send "after";
  Eventloop.run loop;
  check Alcotest.int "flows after" 6 (List.length !received);
  check Alcotest.string "last payload" "after" (List.hd !received);
  let args =
    call caller (dp_xrl "get_counters" [ Xrl_atom.txt "name" "audit" ])
  in
  check Alcotest.string "inserted class" "Count"
    (Xrl_atom.get_txt args "klass");
  check Alcotest.int "inserted element saw the post-insert packet" 1
    (Xrl_atom.get_u32 args "rx");
  let args = call caller (dp_xrl "get_graph" []) in
  check Alcotest.bool "graph shows the insert" true
    (Astring.String.is_infix ~affix:"audit :: Count"
       (Xrl_atom.get_txt args "config"));
  (* And remove it again; traffic keeps flowing. *)
  ignore
    (call caller (dp_xrl "remove_element" [ Xrl_atom.txt "name" "audit" ]));
  send "final";
  Eventloop.run loop;
  check Alcotest.int "flows after removal" 7 (List.length !received)

let test_xrl_install_and_introspect () =
  let _, _, _, caller = setup_fea () in
  let args = call caller (dp_xrl "list_elements" []) in
  check Alcotest.int "default graph listed" 9
    (List.length (Xrl_atom.get_list args "elements"));
  let err, _ =
    Xrl_router.call_blocking caller
      (dp_xrl "install_graph"
         [ Xrl_atom.txt "config" "src :: FromNetsim(eth0)\nsrc -> ghost\n" ])
  in
  (match err with
   | Xrl_error.Command_failed msg ->
     check Alcotest.bool "error names the culprit" true
       (Astring.String.is_infix ~affix:"ghost" msg)
   | e ->
     Alcotest.failf "expected Command_failed, got %s" (Xrl_error.to_string e));
  let args =
    call caller
      (dp_xrl "install_graph"
         [ Xrl_atom.txt "config"
             "src :: FromNetsim(eth0)\nd :: Drop(firewall)\nsrc -> d\n" ])
  in
  check Alcotest.int "replacement graph size" 2
    (Xrl_atom.get_u32 args "elements")

let test_xrl_without_dataplane () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  ignore (Fea.create finder loop ());
  let caller = Xrl_router.create finder loop ~class_name:"test" () in
  let err, _ = Xrl_router.call_blocking caller (dp_xrl "get_graph" []) in
  match err with
  | Xrl_error.Command_failed _ -> ()
  | e ->
    Alcotest.failf "expected Command_failed, got %s" (Xrl_error.to_string e)

(* The wire form, spelled out byte by byte: "DP", ttl, proto, src and
   dst in network order, then the payload. *)
let reference_wire (p : Packet.t) =
  let b = Buffer.create 16 in
  Buffer.add_string b "DP";
  Buffer.add_char b (Char.chr p.Packet.ttl);
  Buffer.add_char b (Char.chr p.Packet.proto);
  List.iter
    (fun a ->
       let o1, o2, o3, o4 = Ipv4.to_octets a in
       List.iter (fun o -> Buffer.add_char b (Char.chr o)) [ o1; o2; o3; o4 ])
    [ p.Packet.src; p.Packet.dst ];
  Buffer.add_string b p.Packet.payload;
  Buffer.contents b

let prop_wire_roundtrip =
  let gen =
    QCheck.Gen.(
      map
        (fun ((src, dst), (ttl, proto), payload) ->
           Packet.make ~ttl ~proto ~payload ~src:(Ipv4.of_int src)
             ~dst:(Ipv4.of_int dst) ())
        (triple
           (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
           (pair (int_bound 255) (int_bound 255))
           (oneof [ return ""; string_size (int_bound 40) ])))
  in
  QCheck.Test.make ~name:"packet wire form is byte-exact and round-trips"
    ~count:500 (QCheck.make ~print:Packet.to_string gen) (fun p ->
      let wire = Packet.to_wire p in
      wire = reference_wire p
      &&
      match Packet.of_wire wire with
      | Ok q ->
        Ipv4.equal q.Packet.src p.Packet.src
        && Ipv4.equal q.Packet.dst p.Packet.dst
        && q.Packet.ttl = p.Packet.ttl && q.Packet.proto = p.Packet.proto
        && q.Packet.payload = p.Packet.payload && q.Packet.in_ifname = ""
        && q.Packet.out_ifname = "" && Ipv4.equal q.Packet.nexthop Ipv4.zero
      | Error _ -> false)

let test_wire_rejects () =
  let bad w =
    match Packet.of_wire w with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "short" true (bad "DP\064\000\010\000\000");
  check Alcotest.bool "bad magic" true
    (bad "XP\064\000\010\000\000\001\010\000\000\002");
  check Alcotest.bool "bare header parses" false
    (bad "DP\064\000\010\000\000\001\010\000\000\002")

let () =
  Alcotest.run "xorp_dataplane"
    [ ( "wire",
        [ Seeded.qcheck prop_wire_roundtrip;
          Alcotest.test_case "malformed packets rejected" `Quick
            test_wire_rejects ] );
      ( "grammar",
        [ Seeded.qcheck prop_parse_print_stable;
          Alcotest.test_case "malformed graphs rejected" `Quick
            test_malformed_graphs;
          Alcotest.test_case "default config canonical" `Quick
            test_default_config_canonical ] );
      ( "runtime",
        [ Alcotest.test_case "default graph forwards" `Quick
            test_default_graph_forwards;
          Alcotest.test_case "drops counted per reason" `Quick
            test_drops_counted_per_reason;
          Alcotest.test_case "classify and tee" `Quick test_classify_and_tee;
          Alcotest.test_case "queue overflow and drain" `Quick
            test_queue_overflow_and_drain;
          Alcotest.test_case "connected route goes direct" `Quick
            test_connected_route_goes_direct;
          Alcotest.test_case "install checks interfaces" `Quick
            test_install_checks_interfaces;
          Alcotest.test_case "insert and remove at runtime" `Quick
            test_runtime_insert_and_remove;
          Alcotest.test_case "extension classes" `Quick
            test_register_map_class ] );
      ( "xrl",
        [ Alcotest.test_case "insert while packets in flight" `Quick
            test_xrl_insert_without_dropping;
          Alcotest.test_case "install and introspect" `Quick
            test_xrl_install_and_introspect;
          Alcotest.test_case "no data plane" `Quick
            test_xrl_without_dataplane ] ) ]
