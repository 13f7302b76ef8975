(* Tests for the simulated network: stream connect/data/close
   semantics, latency, ordering, and datagram delivery/loss. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn

let setup () =
  let loop = Eventloop.create () in
  (loop, Netsim.create loop)

let test_connect_and_exchange () =
  let loop, net = setup () in
  let server_ep = ref None in
  let client_ep = ref None in
  let got_at_server = ref [] in
  let got_at_client = ref [] in
  ignore
    (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun ep ->
         server_ep := Some ep;
         Netsim.Stream.on_receive ep (fun data ->
             got_at_server := data :: !got_at_server;
             Netsim.Stream.send ep ("echo:" ^ data))));
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
    ~port:179 (fun ep -> client_ep := ep);
  Eventloop.run loop;
  (match !client_ep with
   | None -> Alcotest.fail "connect failed"
   | Some ep ->
     Netsim.Stream.on_receive ep (fun data ->
         got_at_client := data :: !got_at_client);
     Netsim.Stream.send ep "hello";
     Netsim.Stream.send ep "world");
  Eventloop.run loop;
  check (Alcotest.list Alcotest.string) "server got both, in order"
    [ "hello"; "world" ] (List.rev !got_at_server);
  check (Alcotest.list Alcotest.string) "client got echoes, in order"
    [ "echo:hello"; "echo:world" ] (List.rev !got_at_client)

let test_connect_refused () =
  let loop, net = setup () in
  let result = ref `Pending in
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.9")
    ~port:179 (fun ep ->
        result := (match ep with None -> `Refused | Some _ -> `Connected));
  Eventloop.run loop;
  check Alcotest.bool "refused" true (!result = `Refused)

let test_latency () =
  let loop = Eventloop.create () in
  let net = Netsim.create ~default_latency:0.010 loop in
  let connected_at = ref (-1.0) in
  let received_at = ref (-1.0) in
  ignore
    (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun ep ->
         Netsim.Stream.on_receive ep (fun _ -> received_at := Eventloop.now loop)));
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
    ~port:179 (fun ep ->
        connected_at := Eventloop.now loop;
        match ep with
        | Some ep -> Netsim.Stream.send ep "x"
        | None -> Alcotest.fail "refused");
  Eventloop.run loop;
  (* connect: SYN (10ms) + SYN-ACK (10ms) = 20ms; data: one more 10ms. *)
  check (Alcotest.float 1e-9) "connect takes one RTT" 0.020 !connected_at;
  check (Alcotest.float 1e-9) "data takes one latency more" 0.030 !received_at

let test_close_notifies_peer () =
  let loop, net = setup () in
  let server_closed = ref false in
  let server = ref None in
  ignore
    (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun ep ->
         server := Some ep;
         Netsim.Stream.on_close ep (fun () -> server_closed := true)));
  let client = ref None in
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
    ~port:179 (fun ep -> client := ep);
  Eventloop.run loop;
  (match !client with
   | Some ep ->
     check Alcotest.bool "open before close" true (Netsim.Stream.is_open ep);
     Netsim.Stream.close ep;
     Netsim.Stream.close ep (* idempotent *)
   | None -> Alcotest.fail "no client");
  Eventloop.run loop;
  check Alcotest.bool "peer notified" true !server_closed;
  (match !server with
   | Some ep -> check Alcotest.bool "peer now closed" false (Netsim.Stream.is_open ep)
   | None -> Alcotest.fail "no server")

let test_send_after_close_dropped () =
  let loop, net = setup () in
  let got = ref 0 in
  ignore
    (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun ep ->
         Netsim.Stream.on_receive ep (fun _ -> incr got)));
  let client = ref None in
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
    ~port:179 (fun ep -> client := ep);
  Eventloop.run loop;
  (match !client with
   | Some ep ->
     Netsim.Stream.close ep;
     Netsim.Stream.send ep "late"
   | None -> Alcotest.fail "no client");
  Eventloop.run loop;
  check Alcotest.int "nothing delivered" 0 !got

let test_double_bind_rejected () =
  let _, net = setup () in
  ignore (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun _ -> ()));
  (try
     ignore (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun _ -> ()));
     Alcotest.fail "double listen accepted"
   with Invalid_argument _ -> ())

let test_unlisten_frees_port () =
  let _, net = setup () in
  let l = Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun _ -> ()) in
  Netsim.Stream.unlisten l;
  ignore (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun _ -> ()))

let test_addresses () =
  let loop, net = setup () in
  let client = ref None in
  ignore (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun _ -> ()));
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
    ~port:179 (fun ep -> client := ep);
  Eventloop.run loop;
  match !client with
  | Some ep ->
    check Alcotest.string "local" "10.0.0.1"
      (Ipv4.to_string (Netsim.Stream.local_addr ep));
    check Alcotest.string "remote" "10.0.0.2"
      (Ipv4.to_string (Netsim.Stream.remote_addr ep))
  | None -> Alcotest.fail "no client"

(* --- datagrams ------------------------------------------------------ *)

let test_dgram_delivery () =
  let loop, net = setup () in
  let a = Netsim.Dgram.bind net ~addr:(addr "10.0.0.1") ~port:520 in
  let b = Netsim.Dgram.bind net ~addr:(addr "10.0.0.2") ~port:520 in
  let got = ref [] in
  Netsim.Dgram.on_receive b (fun ~src ~sport data ->
      got := (Ipv4.to_string src, sport, data) :: !got);
  Netsim.Dgram.sendto a ~dst:(addr "10.0.0.2") ~dport:520 "update1";
  Netsim.Dgram.sendto a ~dst:(addr "10.0.0.2") ~dport:520 "update2";
  Eventloop.run loop;
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.int Alcotest.string))
    "both delivered with source"
    [ ("10.0.0.1", 520, "update1"); ("10.0.0.1", 520, "update2") ]
    (List.rev !got)

let test_dgram_to_nowhere () =
  let loop, net = setup () in
  let a = Netsim.Dgram.bind net ~addr:(addr "10.0.0.1") ~port:520 in
  Netsim.Dgram.sendto a ~dst:(addr "10.9.9.9") ~dport:520 "void";
  Eventloop.run loop (* must not raise *)

let test_dgram_loss () =
  let loop, net = setup () in
  Netsim.set_loss_seed net 11;
  let a = Netsim.Dgram.bind net ~addr:(addr "10.0.0.1") ~port:520 in
  let b = Netsim.Dgram.bind net ~addr:(addr "10.0.0.2") ~port:520 in
  let got = ref 0 in
  Netsim.Dgram.on_receive b (fun ~src:_ ~sport:_ _ -> incr got);
  for _ = 1 to 1000 do
    Netsim.Dgram.sendto a ~loss:0.5 ~dst:(addr "10.0.0.2") ~dport:520 "x"
  done;
  Eventloop.run loop;
  if !got < 350 || !got > 650 then
    Alcotest.failf "50%% loss delivered %d of 1000" !got

let test_dgram_close () =
  let loop, net = setup () in
  let a = Netsim.Dgram.bind net ~addr:(addr "10.0.0.1") ~port:520 in
  let b = Netsim.Dgram.bind net ~addr:(addr "10.0.0.2") ~port:520 in
  let got = ref 0 in
  Netsim.Dgram.on_receive b (fun ~src:_ ~sport:_ _ -> incr got);
  Netsim.Dgram.close b;
  Netsim.Dgram.sendto a ~dst:(addr "10.0.0.2") ~dport:520 "x";
  Eventloop.run loop;
  check Alcotest.int "closed socket gets nothing" 0 !got;
  (* port is free again *)
  ignore (Netsim.Dgram.bind net ~addr:(addr "10.0.0.2") ~port:520)

(* --- fan-out at topology scale -------------------------------------- *)

let test_stream_fanout_fifo () =
  (* 20 clients all talking to one server, every send scheduled at the
     SAME virtual deadlines: per-stream FIFO must survive the
     equal-deadline tie-breaking, and the interleaving must be
     deterministic across runs. *)
  let n_clients = 20 and n_msgs = 10 in
  let run () =
    let loop = Eventloop.create () in
    let net = Netsim.create ~default_latency:0.002 loop in
    let arrivals = ref [] in
    ignore
      (Netsim.Stream.listen net ~addr:(addr "10.0.0.200") ~port:179 (fun ep ->
           Netsim.Stream.on_receive ep (fun data ->
               arrivals := data :: !arrivals)));
    for c = 1 to n_clients do
      Netsim.Stream.connect net ~src:(Ipv4.of_octets 10 0 0 c)
        ~dst:(addr "10.0.0.200") ~port:179 (fun ep ->
          match ep with
          | None -> Alcotest.fail "fanout connect refused"
          | Some ep ->
            for m = 1 to n_msgs do
              (* Shared deadline: every client fires message m at
                 virtual second m. *)
              ignore
                (Eventloop.after loop (float_of_int m) (fun () ->
                     Netsim.Stream.send ep (Printf.sprintf "%d:%d" c m)))
            done)
    done;
    Eventloop.run loop;
    List.rev !arrivals
  in
  let a = run () in
  check Alcotest.int "every message arrived" (n_clients * n_msgs)
    (List.length a);
  (* Per-client FIFO. *)
  let last = Array.make (n_clients + 1) 0 in
  List.iter
    (fun s ->
      Scanf.sscanf s "%d:%d" (fun c m ->
          if m <> last.(c) + 1 then
            Alcotest.failf "client %d: message %d after %d" c m last.(c);
          last.(c) <- m))
    a;
  check
    (Alcotest.list Alcotest.string)
    "interleaving deterministic across runs" a (run ())

let test_dgram_many_ports () =
  (* A 100+-socket world (every RIP instance of a large topology binds
     its own port): each socket sends one datagram around a ring; all
     must arrive, each at the right socket. *)
  let n = 120 in
  let loop, net = setup () in
  let socks =
    Array.init n (fun i ->
        Netsim.Dgram.bind net ~addr:(Ipv4.of_octets 10 2 (i / 100) (i mod 100))
          ~port:(520 + (i mod 7)))
  in
  let got = Array.make n [] in
  Array.iteri
    (fun i s ->
      Netsim.Dgram.on_receive s (fun ~src:_ ~sport:_ data ->
          got.(i) <- data :: got.(i)))
    socks;
  for i = 0 to n - 1 do
    let j = (i + 1) mod n in
    Netsim.Dgram.sendto socks.(i)
      ~dst:(Ipv4.of_octets 10 2 (j / 100) (j mod 100))
      ~dport:(520 + (j mod 7))
      (Printf.sprintf "from-%d" i)
  done;
  Eventloop.run loop;
  for i = 0 to n - 1 do
    let expect = [ Printf.sprintf "from-%d" ((i + n - 1) mod n) ] in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "socket %d got its ring message" i)
      expect got.(i)
  done

(* --- link cuts ------------------------------------------------------- *)

let link_pair = (addr "10.0.0.1", addr "10.0.0.2")

let connected_pair loop net =
  let server = ref None and client = ref None in
  ignore
    (Netsim.Stream.listen net ~addr:(snd link_pair) ~port:179 (fun ep ->
         server := Some ep));
  Netsim.Stream.connect net ~src:(fst link_pair) ~dst:(snd link_pair)
    ~port:179 (fun ep -> client := ep);
  Eventloop.run loop;
  match (!client, !server) with
  | Some c, Some s -> (c, s)
  | _ -> Alcotest.fail "pair did not connect"

(* Ports past 16 bits (the simulated XRL family counts its listener
   ports up from 7000) must not alias another address's port. *)
let test_wide_ports_distinct () =
  let loop, net = setup () in
  let a = addr "10.0.0.1" and b = addr "10.0.0.2" in
  let wide = Netsim.Dgram.bind net ~addr:a ~port:(65536 + 520) in
  let narrow = Netsim.Dgram.bind net ~addr:b ~port:520 in
  let got = ref [] in
  Netsim.Dgram.on_receive wide (fun ~src:_ ~sport:_ d ->
      got := ("wide", d) :: !got);
  Netsim.Dgram.on_receive narrow (fun ~src:_ ~sport:_ d ->
      got := ("narrow", d) :: !got);
  Netsim.Dgram.sendto narrow ~dst:a ~dport:(65536 + 520) "to-wide";
  Netsim.Dgram.sendto wide ~dst:b ~dport:520 "to-narrow";
  Eventloop.run loop;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "each datagram reached its own socket"
    [ ("wide", "to-wide"); ("narrow", "to-narrow") ]
    (List.rev !got);
  ignore
    (Netsim.Stream.listen net ~addr:a ~port:(65536 + 179) (fun _ -> ()));
  ignore (Netsim.Stream.listen net ~addr:b ~port:179 (fun _ -> ()))

(* Components restart without any link being cut: every simtest
   kill/restart closes sessions and dials new ones. Closed endpoints
   (and the callbacks they hold) must leave the stream registry, which
   stays within its documented bound of open + (open + 64). *)
let test_registry_bounded_without_cuts () =
  let loop, net = setup () in
  let server = addr "10.0.0.2" in
  let accepted = ref [] in
  ignore
    (Netsim.Stream.listen net ~addr:server ~port:179 (fun ep ->
         accepted := ep :: !accepted));
  let dial src =
    let got = ref None in
    Netsim.Stream.connect net ~src ~dst:server ~port:179 (fun ep -> got := ep);
    Eventloop.run loop;
    match (!got, !accepted) with
    | Some c, s :: _ -> (c, s)
    | _ -> Alcotest.fail "connect failed"
  in
  (* Five sessions that stay up throughout. *)
  let kept = List.init 5 (fun i -> dial (Ipv4.of_octets 10 0 1 (i + 1))) in
  let w = Weak.create 1 in
  let worst = ref 0 in
  for i = 1 to 1_000 do
    let c, s = dial (Ipv4.of_octets 10 0 0 1) in
    if i = 1 then begin
      let payload = Bytes.make 64 'x' in
      Weak.set w 0 (Some payload);
      Netsim.Stream.on_close s (fun () -> ignore (Bytes.length payload))
    end;
    (* Close from either end, or sever, in turn. *)
    (match i mod 3 with
     | 0 -> Netsim.Stream.close c
     | 1 -> Netsim.Stream.close s
     | _ -> Netsim.Stream.sever c);
    Eventloop.run loop;
    let open_eps =
      List.length
        (List.filter Netsim.Stream.is_open
           (List.concat_map (fun (c, s) -> [ c; s ]) kept))
    in
    worst := max !worst (Netsim.Stream.registered net - (2 * open_eps))
  done;
  check Alcotest.bool "kept sessions still open" true
    (List.for_all
       (fun (c, s) -> Netsim.Stream.is_open c && Netsim.Stream.is_open s)
       kept);
  if !worst > 64 then
    Alcotest.failf "registry exceeded twice the open endpoints by %d" !worst;
  accepted := [];
  Gc.full_major ();
  check Alcotest.bool "a closed session's callbacks were released" false
    (Weak.check w 0)

let test_cut_link_silent () =
  let loop, net = setup () in
  let a, b = link_pair in
  let c, s = connected_pair loop net in
  let s_closed = ref false and got = ref 0 in
  Netsim.Stream.on_close s (fun () -> s_closed := true);
  Netsim.Stream.on_receive s (fun _ -> incr got);
  Netsim.cut_link net ~a ~b;
  check Alcotest.bool "cut visible" true (Netsim.link_cut net ~a ~b);
  Netsim.Stream.send c "into the void";
  Eventloop.run loop;
  check Alcotest.bool "silent: no close callback" false !s_closed;
  check Alcotest.int "silent: nothing delivered" 0 !got;
  check Alcotest.bool "both ends dead" false
    (Netsim.Stream.is_open c || Netsim.Stream.is_open s);
  (* New connects across the cut fail; after heal they succeed. *)
  let att = ref `Pending in
  Netsim.Stream.connect net ~src:a ~dst:b ~port:179 (fun ep ->
      att := (match ep with None -> `Refused | Some _ -> `Connected));
  Eventloop.run loop;
  check Alcotest.bool "connect across cut refused" true (!att = `Refused);
  Netsim.heal_link net ~a ~b;
  check Alcotest.bool "cut cleared" false (Netsim.link_cut net ~a ~b);
  Netsim.Stream.connect net ~src:a ~dst:b ~port:179 (fun ep ->
      att := (match ep with None -> `Refused | Some _ -> `Connected));
  Eventloop.run loop;
  check Alcotest.bool "reconnect after heal" true (!att = `Connected)

let test_cut_link_reset () =
  let loop, net = setup () in
  let a, b = link_pair in
  let c, s = connected_pair loop net in
  let c_closed = ref false and s_closed = ref false in
  Netsim.Stream.on_close c (fun () -> c_closed := true);
  Netsim.Stream.on_close s (fun () -> s_closed := true);
  Netsim.cut_link ~reset:true net ~a ~b;
  Eventloop.run loop;
  check Alcotest.bool "reset: both close callbacks fired" true
    (!c_closed && !s_closed)

let test_cut_link_drops_dgrams () =
  let loop, net = setup () in
  let a, b = link_pair in
  let sa = Netsim.Dgram.bind net ~addr:a ~port:520 in
  let sb = Netsim.Dgram.bind net ~addr:b ~port:520 in
  let got = ref 0 in
  Netsim.Dgram.on_receive sb (fun ~src:_ ~sport:_ _ -> incr got);
  Netsim.cut_link net ~a ~b;
  Netsim.Dgram.sendto sa ~dst:b ~dport:520 "lost";
  Eventloop.run loop;
  check Alcotest.int "dropped while cut" 0 !got;
  Netsim.heal_link net ~a ~b;
  Netsim.Dgram.sendto sa ~dst:b ~dport:520 "after heal";
  Eventloop.run loop;
  check Alcotest.int "delivered after heal" 1 !got

let test_cut_link_spares_others () =
  (* A cut is per-pair: traffic between unrelated addresses flows. *)
  let loop, net = setup () in
  Netsim.cut_link net ~a:(addr "10.0.0.8") ~b:(addr "10.0.0.9");
  let got = ref 0 in
  ignore
    (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun ep ->
         Netsim.Stream.on_receive ep (fun _ -> incr got)));
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
    ~port:179 (fun ep ->
      match ep with
      | Some ep -> Netsim.Stream.send ep "x"
      | None -> Alcotest.fail "unrelated connect refused");
  Eventloop.run loop;
  check Alcotest.int "unrelated pair unaffected" 1 !got

(* Attach callbacks that are the only holders of a fresh block, and
   return a weak pointer to it. Not inlined, so no stack slot of the
   caller keeps the block. *)
let[@inline never] attach_captured ep =
  let captured = Bytes.create 64 in
  let w = Weak.create 1 in
  Weak.set w 0 (Some captured);
  Netsim.Stream.on_receive ep (fun _ -> ignore (Sys.opaque_identity captured));
  Netsim.Stream.on_close ep (fun () -> ignore (Sys.opaque_identity captured));
  w

let test_closed_stream_keeps_no_callbacks () =
  (* A closed endpoint stays reachable — from its peer, from the
     registry until compaction, here from the test itself — so its
     callbacks must not keep what they captured (a dead BGP process
     and its Adj-RIB-In) alive. *)
  let loop, net = setup () in
  let server = ref None and client = ref None in
  ignore
    (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun ep ->
         server := Some ep));
  Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
    ~port:179 (fun ep -> client := ep);
  Eventloop.run loop;
  let client = Option.get !client and server = Option.get !server in
  let wc = attach_captured client and ws = attach_captured server in
  Netsim.Stream.close client;
  Eventloop.run loop;
  check Alcotest.bool "both ends closed" false
    (Netsim.Stream.is_open client || Netsim.Stream.is_open server);
  Gc.full_major ();
  check Alcotest.bool "client's callbacks freed" false (Weak.check wc 0);
  check Alcotest.bool "server's callbacks freed" false (Weak.check ws 0);
  (* A closed endpoint takes no new callbacks either. *)
  let wl = attach_captured client in
  Gc.full_major ();
  check Alcotest.bool "late callbacks not kept" false (Weak.check wl 0)

let test_determinism () =
  (* Two identical runs produce identical event timings. *)
  let run () =
    let loop = Eventloop.create () in
    let net = Netsim.create ~default_latency:0.003 loop in
    let stamps = ref [] in
    ignore
      (Netsim.Stream.listen net ~addr:(addr "10.0.0.2") ~port:179 (fun ep ->
           Netsim.Stream.on_receive ep (fun data ->
               stamps := (data, Eventloop.now loop) :: !stamps)));
    Netsim.Stream.connect net ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
      ~port:179 (fun ep ->
          match ep with
          | Some ep ->
            for i = 1 to 5 do
              ignore
                (Eventloop.after loop (float_of_int i)
                   (fun () -> Netsim.Stream.send ep (string_of_int i)))
            done
          | None -> ());
    Eventloop.run loop;
    List.rev !stamps
  in
  let a = run () and b = run () in
  check (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
    "identical timelines" a b

let () =
  Alcotest.run "xorp_netsim"
    [
      ( "stream",
        [
          Alcotest.test_case "connect and exchange" `Quick
            test_connect_and_exchange;
          Alcotest.test_case "connect refused" `Quick test_connect_refused;
          Alcotest.test_case "latency model" `Quick test_latency;
          Alcotest.test_case "close notifies peer" `Quick
            test_close_notifies_peer;
          Alcotest.test_case "send after close dropped" `Quick
            test_send_after_close_dropped;
          Alcotest.test_case "double bind rejected" `Quick
            test_double_bind_rejected;
          Alcotest.test_case "unlisten frees port" `Quick
            test_unlisten_frees_port;
          Alcotest.test_case "endpoint addresses" `Quick test_addresses;
          Alcotest.test_case "closed endpoint keeps no callbacks" `Quick
            test_closed_stream_keeps_no_callbacks;
        ] );
      ( "dgram",
        [
          Alcotest.test_case "delivery" `Quick test_dgram_delivery;
          Alcotest.test_case "to nowhere" `Quick test_dgram_to_nowhere;
          Alcotest.test_case "bernoulli loss" `Quick test_dgram_loss;
          Alcotest.test_case "close" `Quick test_dgram_close;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "20-endpoint FIFO under shared deadlines" `Quick
            test_stream_fanout_fifo;
          Alcotest.test_case "120 bound dgram sockets" `Quick
            test_dgram_many_ports;
          Alcotest.test_case "ports past 16 bits stay distinct" `Quick
            test_wide_ports_distinct;
        ] );
      ( "links",
        [
          Alcotest.test_case "silent cut" `Quick test_cut_link_silent;
          Alcotest.test_case "reset cut fires close" `Quick
            test_cut_link_reset;
          Alcotest.test_case "cut drops dgrams until heal" `Quick
            test_cut_link_drops_dgrams;
          Alcotest.test_case "cut is per-pair" `Quick
            test_cut_link_spares_others;
          Alcotest.test_case "registry bounded without cuts" `Quick
            test_registry_bounded_without_cuts;
        ] );
      ( "determinism",
        [ Alcotest.test_case "identical runs" `Quick test_determinism ] );
    ]
