(* The §5.1 memory claim: "a XORP router holding a full backbone
   routing table of about 150,000 routes requires about 120 MB for BGP
   and 60 MB for the RIB, which is simply not a problem on any recent
   hardware." The figures quantify the cost of duplicating state
   between stages, which the staged design accepts for independence.

   We measure the live-heap growth attributable to BGP's stage network
   (PeerIn store + resolver store + decision winners + Adj-RIB-Out) and
   to the RIB's stages when loaded with the synthetic 146,515-route
   feed.

   The run fails (exit 1) when either side grows past its ceiling. The
   figures repeat exactly from run to run: 69.8 MB for BGP and 40.0 MB
   for the RIB with immediate prefix keys, option-free trie nodes and
   filter banks that pass routes uncopied. The ceilings were set about
   15% above the 78.8 / 40.0 MB measured before that last change, so
   the boxed-key layout before them (116.3 / 74.2 MB) fails both. *)

open Bench_util

let bgp_ceiling_mb = 90.0
let rib_ceiling_mb = 46.0

let live_mb () =
  Gc.full_major ();
  let st = Gc.stat () in
  float_of_int (st.Gc.live_words * (Sys.word_size / 8)) /. 1024.0 /. 1024.0

let run () =
  header "Memory: full backbone table (paper §5.1 claim)";
  paper_note
    [ "Paper: ~150k routes => ~120 MB in BGP, ~60 MB in the RIB (C++,";
      "per-stage duplication). We measure live-heap growth for the same";
      "route volume; OCaml values differ in size, the shape claim is that";
      "BGP > RIB (more stages hold copies) and both are laptop-trivial." ];
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let feed = Feed.generate Feed.paper_table_size in
  let base = live_mb () in
  (* BGP side: standalone full pipeline with one peer and one probe. *)
  let bgp = standalone_bgp ~loop ~netsim ~local_as:65000 ~bgp_id:(addr "10.0.0.1") () in
  Bgp_process.add_peer bgp
    { (default_peer ~peer_addr:(addr "10.0.0.11") ~local_addr:(addr "10.0.0.1")
         ~peer_as:65100)
      with Bgp_process.passive = Some true };
  Bgp_process.start bgp;
  let injector =
    Injector.create ~loop ~netsim ~local_addr:(addr "10.0.0.11")
      ~local_as:65100 ~peer_addr:(addr "10.0.0.1") ~peer_as:65000 ()
  in
  Injector.connect injector;
  Eventloop.run ~until:(fun () -> Injector.established injector) loop;
  Injector.announce injector ~nexthop:(addr "10.0.0.11")
    (Array.to_list (Array.map (fun e -> e.Feed.net) feed));
  Eventloop.run
    ~until:(fun () -> Bgp_process.route_count bgp >= Feed.paper_table_size)
    loop;
  let after_bgp = live_mb () in
  (* RIB side: load the same table directly. *)
  let finder2 = Finder.create () in
  let rib = Rib.create finder2 loop () in
  Array.iter
    (fun e ->
       ignore
         (Rib.add_route rib ~protocol:"static" ~net:e.Feed.net
            ~nexthop:e.Feed.nexthop ()))
    feed;
  Eventloop.run_until_idle loop;
  let after_rib = live_mb () in
  let bgp_mb = after_bgp -. base in
  let rib_mb = after_rib -. after_bgp in
  pf "\nroutes loaded:        %d\n" Feed.paper_table_size;
  pf "BGP stage network:    %.1f MB   (paper: ~120 MB)\n" bgp_mb;
  pf "RIB stage network:    %.1f MB   (paper: ~60 MB)\n" rib_mb;
  pf "BGP/RIB ratio:        %.2fx  (paper: 2.0x — BGP duplicates more)\n"
    (bgp_mb /. rib_mb);
  pf "per route (BGP):      %.0f bytes\n"
    (bgp_mb *. 1024.0 *. 1024.0 /. float_of_int Feed.paper_table_size);
  Bgp_process.shutdown bgp;
  Rib.shutdown rib;
  let over =
    List.filter
      (fun (_, mb, ceiling) -> mb > ceiling)
      [ ("BGP", bgp_mb, bgp_ceiling_mb); ("RIB", rib_mb, rib_ceiling_mb) ]
  in
  List.iter
    (fun (side, mb, ceiling) ->
       Printf.eprintf "memory: GATE FAILED: %s stage network %.1f MB above %.0f MB\n"
         side mb ceiling)
    over;
  if over <> [] then exit 1;
  pf "gates passed:         BGP under %.0f MB, RIB under %.0f MB\n%!"
    bgp_ceiling_mb rib_ceiling_mb
