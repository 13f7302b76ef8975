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

   Emits BENCH_forward.json and enforces three gates itself: packet
   conservation (every injected packet must arrive; the table routes
   them all), a minimum packets/s floor, and one minimum bare-lookup
   floor for both loops, so the CI smoke run fails loudly on a
   forwarding-path regression. The lookup floor sits well above what a
   pointer-chasing trie reaches on the full table (0.33-0.68 M
   lookups/s on a 2-core x86-64 host, against 4.5-8.5 M/s through
   Fib.lookup and 5-11 M/s through Fib.forward for the compiled FIB),
   so it trips if one comes back. *)

open Bench_util

let n_packets = 200_000
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
  let t0 = Unix.gettimeofday () in
  let sent = ref 0 in
  while !sent < n_packets do
    let this = min batch (n_packets - !sent) in
    for i = 0 to this - 1 do
      let dst = dsts.((!sent + i) mod Array.length dsts) in
      Netsim.Dgram.sendto sender ~dst:dut ~dport:Fea.dataplane_port
        (Packet.to_wire (Packet.make ~src ~dst ()))
    done;
    sent := !sent + this;
    Eventloop.run loop
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let pps = float_of_int !sent /. wall in
  (* The same destinations through the bare longest-match, for scale. *)
  let t1 = Unix.gettimeofday () in
  for i = 0 to n_packets - 1 do
    ignore (Fib.lookup fib dsts.(i mod Array.length dsts))
  done;
  let lookup_wall = Unix.gettimeofday () -. t1 in
  let lookup_pps = float_of_int n_packets /. lookup_wall in
  (* And through the data plane's own entry point, which LpmLookup
     calls per packet. *)
  let t2 = Unix.gettimeofday () in
  for i = 0 to n_packets - 1 do
    ignore (Fib.forward fib dsts.(i mod Array.length dsts))
  done;
  let forward_wall = Unix.gettimeofday () -. t2 in
  let forward_pps = float_of_int n_packets /. forward_wall in
  pf "   injected %d packets in %.2fs: %.0f packets/s end to end\n" !sent
    wall pps;
  pf "   bare Fib.lookup over the same destinations: %.0f lookups/s\n"
    lookup_pps;
  pf "   bare Fib.forward over the same destinations: %.0f lookups/s\n"
    forward_pps;
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
  bpf "  \"wall_s\": %.3f,\n" wall;
  bpf "  \"pps\": %.0f,\n" pps;
  bpf "  \"lookup_only_pps\": %.0f,\n" lookup_pps;
  bpf "  \"forward_lookup_pps\": %.0f,\n" forward_pps;
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
  if pps < min_pps then begin
    Printf.eprintf "forward: GATE FAILED: %.0f packets/s below floor %.0f\n"
      pps min_pps;
    exit 1
  end;
  List.iter
    (fun (what, rate) ->
       if rate < min_lookup_pps then begin
         Printf.eprintf
           "forward: GATE FAILED: %.0f bare %s/s below floor %.0f\n" rate
           what min_lookup_pps;
         exit 1
       end)
    [ ("lookups", lookup_pps); ("forwards", forward_pps) ];
  pf
    "   gates passed: conservation (%d = %d), floor (%.0f >= %.0f pps), \
     lookup floor (%.0f and %.0f >= %.0f lookups/s)\n%!"
    !received !sent pps min_pps lookup_pps forward_pps min_lookup_pps
