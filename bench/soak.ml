(* Restart soak: does killing and restarting components leak?

   Two Rtrmgr routers share one loop and one simulated network; A
   originates 2,000 /24s to B over eBGP. After a 30 s boot, each cycle
   takes B's FEA, RIB and BGP in turn: kill it, run 5 s, restart it,
   run 60 s. Every 10 cycles the bench prints B's Finder watcher count,
   the live heap after a full major collection (as a multiple of its
   post-boot size) and the events dispatched per cycle.

   A killed component must leave nothing behind: the bench fails unless,
   after 60 cycles, the watcher count equals its post-boot value, the
   live heap stays under 1.25x its post-boot size, and the last ten
   cycles dispatch no more events than the first ten. *)

open Bench_util

let routes = 2_000
let cycles = 60

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

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let run () =
  header "soak: 60 kill/restart cycles of B's FEA, RIB and BGP";
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let boot config =
    match Rtrmgr.boot ~loop ~netsim ~config () with
    | Ok r -> r
    | Error problems -> failwith (String.concat "; " problems)
  in
  let networks =
    String.concat ""
      (List.init routes (fun i ->
           Printf.sprintf "network 10.%d.%d.0/24 { }\n" (i / 256) (i mod 256)))
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
  let run_for d = Eventloop.run_until_time loop (Eventloop.now loop +. d) in
  run_for 30.0;
  let finder = Rtrmgr.finder b in
  let fib_size () = Fib.size (Fea.fib (Rtrmgr.fea b)) in
  let fib0 = fib_size () in
  let watchers0 = Finder.watcher_count finder in
  let words0 = live_words () in
  pf "   after boot: FIB %d entries, %d watchers, %d live words\n" fib0
    watchers0 words0;
  pf "   %6s %9s %10s %14s\n" "cycle" "watchers" "live heap" "events/cycle";
  let per_cycle = Array.make cycles 0 in
  let t0 = Unix.gettimeofday () in
  let last = ref (0, 0.0) in
  for c = 0 to cycles - 1 do
    let e0 = Eventloop.events_dispatched loop in
    List.iter
      (fun comp ->
         Rtrmgr.kill_component b comp;
         run_for 5.0;
         Rtrmgr.restart_component b comp;
         run_for 60.0)
      [ `Fea; `Rib; `Bgp ];
    per_cycle.(c) <- Eventloop.events_dispatched loop - e0;
    if (c + 1) mod 10 = 0 then begin
      let watchers = Finder.watcher_count finder in
      let ratio = float_of_int (live_words ()) /. float_of_int words0 in
      last := (watchers, ratio);
      pf "   %6d %9d %9.2fx %14d\n%!" (c + 1) watchers ratio per_cycle.(c)
    end
  done;
  let mean lo =
    float_of_int (Array.fold_left ( + ) 0 (Array.sub per_cycle lo 10)) /. 10.
  in
  let first = mean 0 and final = mean (cycles - 10) in
  pf "   events/cycle: first 10 cycles %.1f, last 10 cycles %.1f\n" first final;
  pf "   FIB after the soak: %d entries (%.1f s wall)\n" (fib_size ())
    (Unix.gettimeofday () -. t0);
  let watchers, ratio = !last in
  let problems =
    List.filter_map Fun.id
      [ (if watchers <> watchers0 then
           Some (Printf.sprintf "watchers %d -> %d" watchers0 watchers)
         else None);
        (if ratio >= 1.25 then
           Some (Printf.sprintf "live heap grew to %.2fx" ratio)
         else None);
        (if final > first then
           Some (Printf.sprintf "events/cycle grew %.1f -> %.1f" first final)
         else None);
        (if fib_size () <> fib0 then
           Some (Printf.sprintf "FIB %d -> %d" fib0 (fib_size ()))
         else None) ]
  in
  Rtrmgr.shutdown a;
  Rtrmgr.shutdown b;
  match problems with
  | [] -> pf "   gates passed: nothing a killed component held survives it\n"
  | _ ->
    List.iter (pf "   FAIL: %s\n") problems;
    exit 1
