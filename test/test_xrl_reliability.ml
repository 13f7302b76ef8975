(* Tests for the XRL reliability layer: caller-side deadlines, the
   settle-once guarantee, bounded retry with backoff, death-driven
   sender cleanup, ordered failure delivery, and chaos-driven
   kill/restart recovery (RIB + FEA). Everything that injects faults
   runs from fixed seeds, so failures replay exactly. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let add_xrl a b =
  Xrl.make ~target:"adder" ~interface:"math" ~method_name:"add"
    [ Xrl_atom.u32 "a" a; Xrl_atom.u32 "b" b ]

(* --- deadlines ------------------------------------------------------ *)

let test_timeout_then_late_reply () =
  (* Deadline fires at t=1; the peer replies at t=5. The caller must
     see exactly one callback (Timed_out), the late reply must be
     dropped, and the pending-send accounting must return to zero. *)
  Telemetry.reset ();
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let target =
    Xrl_router.create finder loop ~class_name:"adder" ()
  in
  Xrl_router.add_handler target ~interface:"math" ~method_name:"add"
    (fun args reply ->
       let a = Xrl_atom.get_u32 args "a" and b = Xrl_atom.get_u32 args "b" in
       ignore
         (Eventloop.after loop 5.0 (fun () ->
              reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "sum" (a + b) ])));
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  let calls = ref 0 in
  let outcome = ref Xrl_error.Ok_xrl in
  Xrl_router.send ~deadline:1.0 caller (add_xrl 20 22) (fun err _ ->
      incr calls;
      outcome := err);
  Eventloop.run_until_time loop (Eventloop.now loop +. 10.0);
  check Alcotest.int "exactly one callback" 1 !calls;
  (match !outcome with
   | Xrl_error.Timed_out _ -> ()
   | e -> Alcotest.failf "expected Timed_out, got %s" (Xrl_error.to_string e));
  check Alcotest.int "pending back to zero" 0 (Xrl_router.pending_sends caller);
  check Alcotest.bool "timeout counted" true
    (Telemetry.counter_value (Telemetry.counter "xrl.timeouts") > 0);
  check Alcotest.bool "late reply counted as dropped" true
    (Telemetry.counter_value (Telemetry.counter "xrl.late_replies_dropped") > 0);
  Xrl_router.shutdown target;
  Xrl_router.shutdown caller

let test_call_blocking_never_reply () =
  (* Acceptance criterion: call_blocking against a peer that accepts
     the request but never replies must return Timed_out within the
     deadline — no hang, no leaked pending send. Over real TCP. *)
  let loop = Eventloop.create ~mode:`Real () in
  let finder = Finder.create () in
  let target =
    Xrl_router.create ~families:[ Pf_tcp.family ] finder loop
      ~class_name:"adder" ()
  in
  Xrl_router.add_handler target ~interface:"math" ~method_name:"add"
    (fun _args _reply -> () (* accept, never reply *));
  let caller =
    Xrl_router.create ~families:[ Pf_tcp.family ] ~family_pref:[ "stcp" ]
      finder loop ~class_name:"caller" ()
  in
  let t0 = Unix.gettimeofday () in
  let err, _ = Xrl_router.call_blocking ~deadline:0.3 caller (add_xrl 1 2) in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match err with
   | Xrl_error.Timed_out _ -> ()
   | e -> Alcotest.failf "expected Timed_out, got %s" (Xrl_error.to_string e));
  check Alcotest.bool
    (Printf.sprintf "returned promptly (%.2fs)" elapsed)
    true (elapsed < 5.0);
  check Alcotest.int "pending back to zero" 0 (Xrl_router.pending_sends caller);
  Xrl_router.shutdown target;
  Xrl_router.shutdown caller

(* --- retry ---------------------------------------------------------- *)

let test_retry_until_target_appears () =
  (* The target class registers only at t=0.25; a retrying call issued
     at t=0 must ride its backoff through the Resolve_failed window and
     succeed once the target is up. *)
  Telemetry.reset ();
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let caller = Xrl_router.create finder loop ~class_name:"caller" () in
  ignore
    (Eventloop.after loop 0.25 (fun () ->
         let target = Xrl_router.create finder loop ~class_name:"adder" () in
         Xrl_router.add_handler target ~interface:"math" ~method_name:"add"
           (fun args reply ->
              let a = Xrl_atom.get_u32 args "a"
              and b = Xrl_atom.get_u32 args "b" in
              reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "sum" (a + b) ])));
  let retry =
    { Xrl_router.default_retry with
      max_attempts = 8; base_delay = 0.05; attempt_timeout = None }
  in
  let result = ref None in
  Xrl_router.send ~retry caller (add_xrl 40 2) (fun err args ->
      result := Some (err, args));
  Eventloop.run_until_time loop (Eventloop.now loop +. 30.0);
  (match !result with
   | Some (err, args) when Xrl_error.is_ok err ->
     check Alcotest.int "sum" 42 (Xrl_atom.get_u32 args "sum")
   | Some (err, _) ->
     Alcotest.failf "expected success, got %s" (Xrl_error.to_string err)
   | None -> Alcotest.fail "call never settled");
  check Alcotest.bool "retries counted" true
    (Telemetry.counter_value (Telemetry.counter "xrl.retries") > 0);
  check Alcotest.int "pending back to zero" 0 (Xrl_router.pending_sends caller)

(* --- shutdown hygiene ----------------------------------------------- *)

let test_shutdown_unhooks_and_is_idempotent () =
  (* Satellite bug: shutdown used to leak the router's Finder
     invalidation hook forever. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let baseline = Finder.invalidate_hook_count finder in
  let a = Xrl_router.create finder loop ~class_name:"a" () in
  let b = Xrl_router.create finder loop ~class_name:"b" () in
  check Alcotest.int "two hooks registered" (baseline + 2)
    (Finder.invalidate_hook_count finder);
  Xrl_router.shutdown a;
  Xrl_router.shutdown a (* double shutdown must be a no-op *);
  check Alcotest.int "a's hook removed exactly once" (baseline + 1)
    (Finder.invalidate_hook_count finder);
  Xrl_router.shutdown b;
  check Alcotest.int "all hooks removed" baseline
    (Finder.invalidate_hook_count finder)

let test_tcp_fail_all_seq_order () =
  (* Satellite bug: pf_tcp failed outstanding calls in Hashtbl.fold
     order. Close a sender with 10 requests in flight; errors must
     arrive in ascending-seq (= send) order. *)
  let loop = Eventloop.create ~mode:`Real () in
  let finder = Finder.create () in
  let target =
    Xrl_router.create ~families:[ Pf_tcp.family ] finder loop
      ~class_name:"adder" ()
  in
  Xrl_router.add_handler target ~interface:"math" ~method_name:"add"
    (fun _args _reply -> () (* hold every reply *));
  let caller =
    Xrl_router.create ~families:[ Pf_tcp.family ] ~family_pref:[ "stcp" ]
      finder loop ~class_name:"caller" ()
  in
  let order = ref [] in
  for i = 1 to 10 do
    (* Each send transmits immediately and registers its seq in the
       transport's outstanding table. *)
    Xrl_router.send caller (add_xrl i i) (fun err _ ->
        match err with
        | Xrl_error.Send_failed _ -> order := i :: !order
        | e -> Alcotest.failf "call %d: expected Send_failed, got %s" i
                 (Xrl_error.to_string e))
  done;
  Xrl_router.shutdown caller;
  check (Alcotest.list Alcotest.int) "failed in seq order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !order);
  check Alcotest.int "pending back to zero" 0 (Xrl_router.pending_sends caller);
  Xrl_router.shutdown target

(* --- deferred kill dispatch ----------------------------------------- *)

let test_kill_dispatch_is_deferred () =
  (* Satellite bug: the kill family dispatched synchronously inside the
     caller's send, re-entering the receiver. The signal must land on a
     later event-loop turn. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let got = ref None in
  let victim =
    Xrl_router.create ~families:[ Pf_intra.family; Pf_kill.family ]
      finder loop ~class_name:"victim" ()
  in
  Pf_kill.make_signalable victim ~on_signal:(fun s -> got := Some s);
  let killer =
    Xrl_router.create ~families:[ Pf_kill.family ] ~family_pref:[ "kill" ]
      finder loop ~class_name:"killer" ()
  in
  let replied = ref false in
  Pf_kill.send_signal killer ~target:"victim" ~signal:"HUP" (fun err ->
      replied := true;
      if not (Xrl_error.is_ok err) then
        Alcotest.failf "signal failed: %s" (Xrl_error.to_string err));
  check Alcotest.bool "not delivered synchronously" true (!got = None);
  Eventloop.run_until_idle loop;
  check (Alcotest.option Alcotest.string) "delivered on a later turn"
    (Some "HUP") !got;
  check Alcotest.bool "reply arrived" true !replied;
  Xrl_router.shutdown victim;
  Xrl_router.shutdown killer

(* --- chaos ---------------------------------------------------------- *)

let test_chaos_duplicates_are_absorbed () =
  (* dup_prob = 1: every reply is delivered twice by the transport. The
     router's settle-once guard must absorb the duplicates. *)
  Telemetry.reset ();
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let cfg = Pf_chaos.config ~dup_prob:1.0 () in
  let fam = Pf_chaos.wrap ~seed:0xD0_0D ~config:cfg Pf_intra.family in
  let target =
    Xrl_router.create ~families:[ fam ] finder loop ~class_name:"adder" ()
  in
  Xrl_router.add_handler target ~interface:"math" ~method_name:"add"
    (fun args reply ->
       reply Xrl_error.Ok_xrl
         [ Xrl_atom.u32 "sum"
             (Xrl_atom.get_u32 args "a" + Xrl_atom.get_u32 args "b") ]);
  let caller =
    Xrl_router.create ~families:[ fam ] finder loop ~class_name:"caller" ()
  in
  let n = 20 in
  let fired = Array.make (n + 1) 0 in
  for i = 1 to n do
    Xrl_router.send caller (add_xrl i i) (fun err _ ->
        if Xrl_error.is_ok err then fired.(i) <- fired.(i) + 1)
  done;
  Eventloop.run_until_idle loop;
  for i = 1 to n do
    check Alcotest.int (Printf.sprintf "call %d fired once" i) 1 fired.(i)
  done;
  check Alcotest.bool "duplicates were injected" true
    (Telemetry.counter_value (Telemetry.counter "xrl.chaos.dups") > 0);
  check Alcotest.bool "duplicates were dropped" true
    (Telemetry.counter_value (Telemetry.counter "xrl.late_replies_dropped") > 0);
  check Alcotest.int "pending back to zero" 0 (Xrl_router.pending_sends caller)

let test_chaos_drops_recovered_by_retry () =
  (* 30% of requests black-holed; retrying calls with a per-attempt
     timeout must all eventually succeed. Fixed seeds end to end, so
     this runs the same way every time. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let cfg = Pf_chaos.config ~drop_prob:0.3 () in
  let fam = Pf_chaos.wrap ~seed:0x5EED ~config:cfg Pf_intra.family in
  let target =
    Xrl_router.create ~families:[ fam ] finder loop ~class_name:"adder" ()
  in
  Xrl_router.add_handler target ~interface:"math" ~method_name:"add"
    (fun args reply ->
       reply Xrl_error.Ok_xrl
         [ Xrl_atom.u32 "sum"
             (Xrl_atom.get_u32 args "a" + Xrl_atom.get_u32 args "b") ]);
  let caller =
    Xrl_router.create ~families:[ fam ] finder loop ~class_name:"caller" ()
  in
  let retry =
    { Xrl_router.default_retry with
      max_attempts = 8; base_delay = 0.02; attempt_timeout = Some 0.5 }
  in
  let n = 30 in
  let ok = ref 0 in
  let failures = ref [] in
  for i = 1 to n do
    Xrl_router.send ~retry caller (add_xrl i 1) (fun err args ->
        if Xrl_error.is_ok err && Xrl_atom.get_u32 args "sum" = i + 1 then
          incr ok
        else failures := Xrl_error.to_string err :: !failures)
  done;
  Eventloop.run_until_time loop (Eventloop.now loop +. 120.0);
  check (Alcotest.list Alcotest.string) "no failures" [] !failures;
  check Alcotest.int "all calls succeeded" n !ok;
  check Alcotest.int "pending back to zero" 0 (Xrl_router.pending_sends caller)

(* --- FEA kill/restart under chaos ----------------------------------- *)

let fib_signature fea =
  List.sort compare
    (List.map
       (fun (e : Fib.entry) ->
          (Ipv4net.to_string e.Fib.net, Ipv4.to_string e.Fib.nexthop))
       (Fib.entries (Fea.fib fea)))

(* Drive the same adds-only route load through RIB → FEA, killing and
   restarting the FEA mid-load when [kill] is set, over a chaos-wrapped
   transport when [chaos] is set. Returns the surviving FEA's FIB. *)
let run_fea_scenario ~chaos ~kill () =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let fam =
    if chaos then
      Pf_chaos.wrap ~seed:0xC4A05
        ~config:
          (Pf_chaos.config ~drop_prob:0.15 ~dup_prob:0.1 ~delay:0.002
             ~delay_jitter:0.004 ())
        Pf_intra.family
    else Pf_intra.family
  in
  let fea = ref (Fea.create ~families:[ fam ] finder loop ()) in
  let rib = Rib.create ~families:[ fam ] finder loop () in
  let add i =
    match
      Rib.add_route rib ~protocol:"static"
        ~net:(net (Printf.sprintf "10.%d.%d.0/24" (i / 256) (i mod 256)))
        ~nexthop:(addr "192.0.2.1") ()
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "add %d: %s" i e
  in
  for i = 1 to 20 do add i done;
  (* Let some (not necessarily all) updates reach the FEA... *)
  Eventloop.run_until_time loop (Eventloop.now loop +. 0.01);
  if kill then Fea.shutdown !fea;
  (* ...then keep loading while it is down. *)
  for i = 21 to 40 do add i done;
  Eventloop.run_until_time loop (Eventloop.now loop +. 0.05);
  if kill then fea := Fea.create ~families:[ fam ] finder loop ();
  (* Converge: generous horizon so every retry/backoff chain and the
     rebirth replay complete (simulated time is free). *)
  Eventloop.run_until_time loop (Eventloop.now loop +. 300.0);
  let signature = fib_signature !fea in
  Rib.shutdown rib;
  Fea.shutdown !fea;
  signature

let test_fea_kill_restart_converges () =
  (* Acceptance criterion: kill the FEA mid-load, restart it, and the
     RIB must converge the new instance's FIB to exactly what a
     fault-free run produces — despite drops, dups and delays. *)
  let expected = run_fea_scenario ~chaos:false ~kill:false () in
  check Alcotest.int "baseline has all routes" 40 (List.length expected);
  let faulted = run_fea_scenario ~chaos:true ~kill:true () in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "restarted FEA converged to the no-fault FIB" expected faulted

let test_fea_death_drops_updates () =
  (* Without chaos: updates made while no FEA is live are dropped, not
     held — the RIB's FEA queue stays empty — and the rebirth replay
     installs the full FIB. *)
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  (match
     Rib.add_route rib ~protocol:"static" ~net:(net "10.0.1.0/24")
       ~nexthop:(addr "192.0.2.1") ()
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Eventloop.run_until_idle loop;
  check Alcotest.int "first route installed" 1 (Fib.size (Fea.fib fea));
  Fea.shutdown fea;
  (match
     Rib.add_route rib ~protocol:"static" ~net:(net "10.0.2.0/24")
       ~nexthop:(addr "192.0.2.1") ()
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  check Alcotest.int "nothing queued for a dead FEA" 0
    (Rib.fea_queue_length rib);
  Eventloop.run_until_time loop (Eventloop.now loop +. 30.0);
  check Alcotest.int "nothing held while no FEA is live" 0
    (Rib.fea_queue_length rib);
  let fea2 = Fea.create finder loop () in
  Eventloop.run_until_time loop (Eventloop.now loop +. 30.0);
  check Alcotest.int "replay installed the full FIB" 2
    (Fib.size (Fea.fib fea2));
  Rib.shutdown rib;
  Fea.shutdown fea2

(* --- component lifecycle: kill/restart cycles free what they kill ---- *)

(* Router A originates [routes] /24s to router B over eBGP; both are
   full Rtrmgr stacks on one loop and one simulated network. *)
let ebgp_pair ~routes =
  let networks =
    String.concat ""
      (List.init routes (fun i ->
           Printf.sprintf "network 10.%d.%d.0/24 { }\n" (i / 256) (i mod 256)))
  in
  let config ~me ~peer ~local_as ~peer_as ~networks =
    Printf.sprintf
      {|interfaces { interface eth0 { address: %s } }
protocols {
  bgp {
    local-as: %d
    bgp-id: %s
    %s
    peer %s { as: %d local-ip: %s }
  }
}|}
      me local_as me networks peer peer_as me
  in
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let boot config =
    match Rtrmgr.boot ~loop ~netsim ~config () with
    | Ok r -> r
    | Error problems -> Alcotest.fail (String.concat "; " problems)
  in
  let a =
    boot
      (config ~me:"10.255.0.1" ~peer:"10.255.0.2" ~local_as:65001
         ~peer_as:65002 ~networks)
  in
  let b =
    boot
      (config ~me:"10.255.0.2" ~peer:"10.255.0.1" ~local_as:65002
         ~peer_as:65001 ~networks:"")
  in
  (loop, a, b)

(* A weak pointer to [x], as "is it still alive?". Not inlined, so no
   stack slot of the caller keeps [x]. *)
let[@inline never] still_alive x =
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  fun () -> Weak.check w 0

let test_restart_cycles_free_killed () =
  let routes = 50 in
  let loop, a, b = ebgp_pair ~routes in
  let run_for d = Eventloop.run_until_time loop (Eventloop.now loop +. d) in
  run_for 30.0;
  let fib_size () = Fib.size (Fea.fib (Rtrmgr.fea b)) in
  let booted = fib_size () in
  check Alcotest.bool "B learned A's routes" true (booted > routes);
  let finder = Rtrmgr.finder b in
  let watchers = Finder.watcher_count finder in
  let killed = ref [] in
  for _ = 1 to 10 do
    List.iter
      (fun comp ->
         (match comp with
          | `Rib -> killed := still_alive (Rtrmgr.rib b) :: !killed
          | `Bgp ->
            killed := still_alive (Option.get (Rtrmgr.bgp b)) :: !killed
          | _ -> ());
         Rtrmgr.kill_component b comp;
         run_for 5.0;
         Rtrmgr.restart_component b comp;
         run_for 60.0)
      [ `Fea; `Rib; `Bgp ]
  done;
  check Alcotest.int "B's FIB recovered" booted (fib_size ());
  check Alcotest.int "watcher count unchanged" watchers
    (Finder.watcher_count finder);
  Gc.full_major ();
  let alive = List.length (List.filter (fun alive -> alive ()) !killed) in
  check Alcotest.int "killed RIBs and BGPs collected" 0 alive;
  Rtrmgr.shutdown a;
  Rtrmgr.shutdown b

let () =
  Alcotest.run "xrl_reliability"
    [ ( "deadline",
        [ Alcotest.test_case "timeout then late reply" `Quick
            test_timeout_then_late_reply;
          Alcotest.test_case "call_blocking never-reply peer" `Quick
            test_call_blocking_never_reply ] );
      ( "retry",
        [ Alcotest.test_case "retry until target appears" `Quick
            test_retry_until_target_appears ] );
      ( "shutdown",
        [ Alcotest.test_case "unhooks finder, idempotent" `Quick
            test_shutdown_unhooks_and_is_idempotent;
          Alcotest.test_case "tcp fail_all in seq order" `Quick
            test_tcp_fail_all_seq_order ] );
      ( "kill",
        [ Alcotest.test_case "dispatch is deferred" `Quick
            test_kill_dispatch_is_deferred ] );
      ( "chaos",
        [ Alcotest.test_case "duplicates absorbed" `Quick
            test_chaos_duplicates_are_absorbed;
          Alcotest.test_case "drops recovered by retry" `Quick
            test_chaos_drops_recovered_by_retry ] );
      ( "fea-lifecycle",
        [ Alcotest.test_case "death drops updates, rebirth replays" `Quick
            test_fea_death_drops_updates;
          Alcotest.test_case "kill/restart converges under chaos" `Quick
            test_fea_kill_restart_converges ] );
      ( "lifecycle",
        [ Alcotest.test_case "restart cycles free what they kill" `Quick
            test_restart_cycles_free_killed ] ) ]
