(* Forwarding throughput through the element-graph data plane.

   A DUT FEA carries the paper's full backbone table (146,515 routes,
   §8.2) in its FIB; packets enter over netsim on eth0, traverse the
   default element graph (Classify → CheckHeader → LpmLookup → DecTtl →
   Queue → Scheduler → ToNetsim) and exit toward their nexthops, where
   receiver sockets count arrivals. Reported packets/s is wall-clock —
   simulated time is free, the cost measured is the per-packet work of
   the graph plus netsim delivery. Bare loops over the same
   destinations through the control plane's Fib.lookup and the data
   plane's Fib.forward are timed alongside to show the graph's overhead
   over the lookup itself.

   Each figure is timed over five windows of 200,000 packets (or
   lookups), and reported as the windows' median and min-max: a single
   window lasts 0.12-0.25 s, and one window's figure spread from 1.01
   to 1.63 M packets/s on unchanged code on one 2-core host.

   Emits BENCH_forward.json and enforces three gates itself, on every
   window: packet conservation (every injected packet must arrive; the
   table routes them all), a minimum packets/s floor, and one minimum
   bare-lookup floor for both loops, so the CI smoke run fails loudly
   on a forwarding-path regression. The lookup floor sits well above what a
   pointer-chasing trie reaches on the full table (0.33-0.68 M
   lookups/s on a 2-core x86-64 host, against 4.5-8.5 M/s through
   Fib.lookup and 5-11 M/s through Fib.forward for the compiled FIB),
   so it trips if one comes back. *)

open Bench_util

let n_packets = 200_000 (* per window *)
let windows = 5
let batch = 256 (* < the default Queue(512) capacity *)
let min_pps = 20_000.
let min_lookup_pps = 1_500_000.

(* The DUT's own addresses must stay clear of the feed's nexthop pool
   (10.0.{0..3}.{1..8}) or a receiver would collide with an interface. *)
let dut_ifaces =
  [ ("eth0", addr "10.100.0.1"); ("eth1", addr "10.101.0.1") ]

let run () =
  header
    (Printf.sprintf "forwarding throughput, %d-route FIB (element graph)"
       Feed.paper_table_size);
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let finder = Finder.create () in
  let fea = Fea.create ~interfaces:dut_ifaces ~netsim finder loop () in
  let dp =
    match Fea.dataplane fea with
    | Some dp -> dp
    | None -> failwith "forward: FEA came up without a data plane"
  in
  let fib = Fea.fib fea in
  let feed = Feed.generate Feed.paper_table_size in
  Array.iter
    (fun (e : Feed.entry) ->
       Fib.add fib
         { Fib.net = e.Feed.net; nexthop = e.Feed.nexthop; ifname = "eth1";
           protocol = "static" })
    feed;
  pf "   FIB loaded: %d routes\n%!" (Fib.size fib);
  (* A receiver per nexthop, one hop beyond eth1. *)
  let received = ref 0 in
  List.iter
    (fun nh ->
       let s = Netsim.Dgram.bind netsim ~addr:nh ~port:Fea.dataplane_port in
       Netsim.Dgram.on_receive s (fun ~src:_ ~sport:_ _ -> incr received))
    (Feed.nexthops feed);
  (* Destinations cycle through the feed's prefixes. *)
  let dsts =
    Array.of_seq
      (Seq.filter
         (fun a -> not (Ipv4.equal a Ipv4.zero || Ipv4.is_multicast a))
         (Seq.map
            (fun (e : Feed.entry) -> Ipv4net.first_addr e.Feed.net)
            (Array.to_seq feed)))
  in
  let sender =
    Netsim.Dgram.bind netsim ~addr:(addr "10.100.0.99")
      ~port:Fea.dataplane_port
  in
  let dut = addr "10.100.0.1" in
  let src = addr "10.100.0.99" in
  let sent = ref 0 in
  (* The per-second rates of [windows] timed runs of [window], each of
     which handles n_packets packets or lookups. *)
  let rates window =
    List.init windows (fun _ ->
        let t0 = Unix.gettimeofday () in
        window ();
        float_of_int n_packets /. (Unix.gettimeofday () -. t0))
  in
  let pps =
    rates (fun () ->
        let stop = !sent + n_packets in
        while !sent < stop do
          let this = min batch (stop - !sent) in
          for i = 0 to this - 1 do
            let dst = dsts.((!sent + i) mod Array.length dsts) in
            Netsim.Dgram.sendto sender ~dst:dut ~dport:Fea.dataplane_port
              (Packet.to_wire (Packet.make ~src ~dst ()))
          done;
          sent := !sent + this;
          Eventloop.run loop
        done)
  in
  (* The same destinations through the bare longest-match, for scale. *)
  let lookup_pps =
    rates (fun () ->
        for i = 0 to n_packets - 1 do
          ignore (Fib.lookup fib dsts.(i mod Array.length dsts))
        done)
  in
  (* And through the data plane's own entry point, which LpmLookup
     calls per packet. *)
  let forward_pps =
    rates (fun () ->
        for i = 0 to n_packets - 1 do
          ignore (Fib.forward fib dsts.(i mod Array.length dsts))
        done)
  in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let lo xs = List.fold_left Float.min infinity xs in
  let hi xs = List.fold_left Float.max neg_infinity xs in
  let range xs =
    Printf.sprintf "%.0f (min %.0f, max %.0f)" (median xs) (lo xs) (hi xs)
  in
  pf "   injected %d packets in %d windows: %s packets/s end to end\n" !sent
    windows (range pps);
  pf "   bare Fib.lookup over the same destinations: %s lookups/s\n"
    (range lookup_pps);
  pf "   bare Fib.forward over the same destinations: %s lookups/s\n"
    (range forward_pps);
  let stats = Dataplane.stats dp in
  List.iter
    (fun (s : Dataplane.stats) ->
       if s.Dataplane.st_rx > 0 || s.Dataplane.st_drops <> [] then
         pf "   %-12s %-12s rx %8d  tx %8d%s\n" s.Dataplane.st_name
           s.Dataplane.st_klass s.Dataplane.st_rx s.Dataplane.st_tx
           (match s.Dataplane.st_drops with
            | [] -> ""
            | ds ->
              "  drops "
              ^ String.concat ", "
                  (List.map
                     (fun (r, n) -> Printf.sprintf "%s:%d" r n)
                     ds)))
    stats;
  (* JSON artifact. *)
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"bench\": \"forward\",\n";
  bpf "  \"table_size\": %d,\n" (Fib.size fib);
  bpf "  \"packets\": %d,\n" !sent;
  bpf "  \"received\": %d,\n" !received;
  bpf "  \"windows\": %d,\n" windows;
  bpf "  \"packets_per_window\": %d,\n" n_packets;
  let figure name xs =
    bpf "  %S: %.0f,\n" name (median xs);
    bpf "  %S: [%.0f, %.0f],\n" (name ^ "_min_max") (lo xs) (hi xs)
  in
  figure "pps" pps;
  figure "lookup_only_pps" lookup_pps;
  figure "forward_lookup_pps" forward_pps;
  bpf "  \"min_pps_gate\": %.0f,\n" min_pps;
  bpf "  \"min_lookup_pps_gate\": %.0f,\n" min_lookup_pps;
  bpf "  \"elements\": [\n";
  let n_stats = List.length stats in
  List.iteri
    (fun i (s : Dataplane.stats) ->
       bpf
         "    { \"name\": %S, \"class\": %S, \"rx\": %d, \"tx\": %d, \
          \"drops\": { %s } }%s\n"
         s.Dataplane.st_name s.Dataplane.st_klass s.Dataplane.st_rx
         s.Dataplane.st_tx
         (String.concat ", "
            (List.map
               (fun (r, n) -> Printf.sprintf "%S: %d" r n)
               s.Dataplane.st_drops))
         (if i = n_stats - 1 then "" else ","))
    stats;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out "BENCH_forward.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "   wrote BENCH_forward.json\n%!";
  Fea.shutdown fea;
  (* Gates: conservation first (a lost packet is a correctness bug, not
     a performance one), then the throughput floor. *)
  if !received <> !sent then begin
    Printf.eprintf "forward: GATE FAILED: sent %d packets, received %d\n"
      !sent !received;
    exit 1
  end;
  let floor what floor xs =
    if lo xs < floor then begin
      Printf.eprintf "forward: GATE FAILED: a window's %.0f %s/s below floor %.0f\n"
        (lo xs) what floor;
      exit 1
    end
  in
  floor "packets" min_pps pps;
  floor "bare lookups" min_lookup_pps lookup_pps;
  floor "bare forwards" min_lookup_pps forward_pps;
  pf
    "   gates passed in every window: conservation (%d = %d), floor \
     (%.0f >= %.0f pps), lookup floor (%.0f and %.0f >= %.0f lookups/s)\n%!"
    !received !sent (lo pps) min_pps (lo lookup_pps) (lo forward_pps)
    min_lookup_pps
