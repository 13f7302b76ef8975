(* Unit tests for the BGP pipeline stages in isolation: PeerIn and
   dynamic deletion stages, filter banks, damping, nexthop resolvers,
   the decision process, the fanout queue, RibOut, and the checking
   cache. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let mkroute ?(nh = "10.0.0.1") ?(path = [ 65001 ]) ?(peer = 1) ?igp
    ?(localpref : int option) ?med n =
  { Bgp_types.net = net n;
    attrs =
      { (Bgp_types.default_attrs ~nexthop:(addr nh)) with
        Bgp_types.aspath = [ Aspath.Seq path ]; localpref; med };
    peer_id = peer;
    igp_metric = igp }

(* A recording sink. *)
type recorder = {
  mutable log : (string * Bgp_types.route) list; (* newest first *)
  tbl : Bgp_table.table;
}

let recorder ?parent () =
  let r = ref None in
  let parent =
    match parent with
    | Some p -> p
    | None ->
      (* A null parent for sinks that never pull. *)
      (new Bgp_ribin.rib_in ~name:"null" ~peer_id:999 (Eventloop.create ())
        :> Bgp_table.table)
  in
  let sink =
    new Bgp_table.sink ~name:"recorder" ~parent
      ~on_add:(fun route ->
          match !r with
          | Some rec_ -> rec_.log <- ("add", route) :: rec_.log
          | None -> ())
      ~on_delete:(fun route ->
          match !r with
          | Some rec_ -> rec_.log <- ("del", route) :: rec_.log
          | None -> ())
  in
  let rec_ = { log = []; tbl = (sink :> Bgp_table.table) } in
  r := Some rec_;
  rec_

let ops rec_ = List.rev_map (fun (op, r) -> (op, Ipv4net.to_string r.Bgp_types.net)) rec_.log

(* --- PeerIn ----------------------------------------------------------- *)

let test_ribin_basic () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let rec_ = recorder () in
  ribin#set_next (Some rec_.tbl);
  ribin#add_route (mkroute "10.0.0.0/8");
  ribin#add_route (mkroute "20.0.0.0/8");
  check Alcotest.int "stored" 2 ribin#route_count;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "adds flowed"
    [ ("add", "10.0.0.0/8"); ("add", "20.0.0.0/8") ]
    (ops rec_);
  (* replacement: delete old, add new *)
  ribin#add_route (mkroute ~path:[ 65001; 65002 ] "10.0.0.0/8");
  check Alcotest.int "still 2" 2 ribin#route_count;
  (match rec_.log with
   | ("add", nr) :: ("del", old) :: _ ->
     check Alcotest.int "old path len" 1 (Aspath.length old.Bgp_types.attrs.aspath);
     check Alcotest.int "new path len" 2 (Aspath.length nr.Bgp_types.attrs.aspath)
   | _ -> Alcotest.fail "expected del+add");
  (* withdrawal of unknown prefix is silent *)
  let before = List.length rec_.log in
  ribin#delete_route (mkroute "99.0.0.0/8");
  check Alcotest.int "silent" before (List.length rec_.log)

let test_deletion_stage_gradual () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let rec_ = recorder ~parent:(ribin :> Bgp_table.table) () in
  ribin#set_next (Some rec_.tbl);
  for i = 0 to 499 do
    ribin#add_route (mkroute (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250)))
  done;
  rec_.log <- [];
  ribin#peering_went_down ~slice:50 ();
  check Alcotest.int "ribin emptied instantly" 0 ribin#route_count;
  check Alcotest.int "one deletion stage" 1 ribin#active_deletion_stages;
  (* lookups still see the victims until their delete is emitted *)
  check Alcotest.bool "victim still visible" true
    (ribin#lookup_route (net "10.0.0.0/24") <> None);
  Eventloop.run loop;
  check Alcotest.int "all deletes emitted" 500 (List.length rec_.log);
  check Alcotest.int "stage unplumbed" 0 ribin#active_deletion_stages;
  check Alcotest.bool "victim gone" true
    (ribin#lookup_route (net "10.0.0.0/24") = None)

let test_deletion_stage_flap_consistency () =
  (* The paper's §5.1.2 invariant: if the peer comes back and
     re-announces a prefix the deletion stage still holds, downstream
     sees delete(old) then add(new), and each route lives in at most
     one deletion stage. *)
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let rec_ = recorder ~parent:(ribin :> Bgp_table.table) () in
  ribin#set_next (Some rec_.tbl);
  ribin#add_route (mkroute ~path:[ 1 ] "10.0.0.0/8");
  ribin#add_route (mkroute ~path:[ 1 ] "20.0.0.0/8");
  rec_.log <- [];
  ribin#peering_went_down ~slice:1 ();
  (* Peer returns immediately and re-announces 10/8 with a new path
     before the background task ran at all. *)
  ribin#add_route (mkroute ~path:[ 9; 1 ] "10.0.0.0/8");
  (match List.rev rec_.log with
   | ("del", old) :: ("add", nr) :: [] ->
     check Alcotest.string "old deleted first" "10.0.0.0/8"
       (Ipv4net.to_string old.Bgp_types.net);
     check Alcotest.int "old path" 1 (Aspath.length old.Bgp_types.attrs.aspath);
     check Alcotest.int "new path" 2 (Aspath.length nr.Bgp_types.attrs.aspath)
   | l -> Alcotest.failf "unexpected stream (%d entries)" (List.length l));
  (* Second flap while the first deletion stage still holds 20/8. *)
  ribin#peering_went_down ~slice:1 ();
  check Alcotest.int "two stages stacked" 2 ribin#active_deletion_stages;
  Eventloop.run loop;
  check Alcotest.int "all unplumbed" 0 ribin#active_deletion_stages;
  (* Net effect downstream: both prefixes deleted exactly once more
     than added. Model-check the stream. *)
  let model = Hashtbl.create 8 in
  (* Seed with the two adds that flowed before the log was cleared. *)
  Hashtbl.replace model "10.0.0.0/8" ();
  Hashtbl.replace model "20.0.0.0/8" ();
  List.iter
    (fun (op, r) ->
       let key = Ipv4net.to_string r.Bgp_types.net in
       match op with
       | "add" ->
         if Hashtbl.mem model key then Alcotest.failf "double add %s" key;
         Hashtbl.replace model key ()
       | _ ->
         if not (Hashtbl.mem model key) then
           Alcotest.failf "delete without add %s" key;
         Hashtbl.remove model key)
    (List.rev rec_.log);
  check Alcotest.int "stream nets out to empty" 0 (Hashtbl.length model)

(* --- filter bank ------------------------------------------------------- *)

let compile s = Result.get_ok (Policy.compile s)

let test_filter_reject_modify () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let filter =
    new Bgp_filter.filter_table ~name:"f"
      ~parent:(ribin :> Bgp_table.table)
      ~local_as:65000 ~peer_as:65001
      ~programs:
        [ compile
            {|
load network
push.net 10.0.0.0/8
within
jfalse keep
reject
label keep
push.u32 250
store localpref
accept
|} ]
      ()
  in
  Bgp_table.plumb ribin filter;
  let rec_ = recorder ~parent:(filter :> Bgp_table.table) () in
  filter#set_next (Some rec_.tbl);
  ribin#add_route (mkroute "10.1.0.0/16"); (* rejected *)
  ribin#add_route (mkroute "128.16.0.0/16"); (* accepted + modified *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "only the accepted one" [ ("add", "128.16.0.0/16") ] (ops rec_);
  (match rec_.log with
   | [ (_, r) ] ->
     check Alcotest.int "localpref set" 250
       (Bgp_types.effective_localpref r.Bgp_types.attrs)
   | _ -> Alcotest.fail "expected one entry");
  (* deletes are filtered identically *)
  rec_.log <- [];
  ribin#delete_route (mkroute "10.1.0.0/16");
  check Alcotest.int "rejected delete dropped" 0 (List.length rec_.log);
  ribin#delete_route (mkroute "128.16.0.0/16");
  (match rec_.log with
   | [ ("del", r) ] ->
     check Alcotest.int "delete got same transform" 250
       (Bgp_types.effective_localpref r.Bgp_types.attrs)
   | _ -> Alcotest.fail "expected one delete");
  (* lookup applies the filter too *)
  ribin#add_route (mkroute "128.16.0.0/16");
  (match filter#lookup_route (net "128.16.0.0/16") with
   | Some r ->
     check Alcotest.int "lookup transformed" 250
       (Bgp_types.effective_localpref r.Bgp_types.attrs)
   | None -> Alcotest.fail "lookup lost the route");
  check Alcotest.bool "rejected invisible" true
    (filter#lookup_route (net "10.1.0.0/16") = None)

let test_filter_aspath_prepend () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let filter =
    new Bgp_filter.filter_table ~name:"f"
      ~parent:(ribin :> Bgp_table.table)
      ~local_as:65000 ~peer_as:65001
      ~programs:[ compile "push.u32 2\nstore aspath_prepend\naccept" ]
      ()
  in
  Bgp_table.plumb ribin filter;
  let rec_ = recorder ~parent:(filter :> Bgp_table.table) () in
  filter#set_next (Some rec_.tbl);
  ribin#add_route (mkroute ~path:[ 65001 ] "10.0.0.0/8");
  match rec_.log with
  | [ (_, r) ] ->
    check Alcotest.string "prepended twice" "65000 65000 65001"
      (Aspath.to_string r.Bgp_types.attrs.aspath)
  | _ -> Alcotest.fail "expected one add"

let test_filter_refilter () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let filter =
    new Bgp_filter.filter_table ~name:"f"
      ~parent:(ribin :> Bgp_table.table)
      ~local_as:65000 ~peer_as:65001 ~programs:[] ()
  in
  Bgp_table.plumb ribin filter;
  let rec_ = recorder ~parent:(filter :> Bgp_table.table) () in
  filter#set_next (Some rec_.tbl);
  ribin#add_route (mkroute "10.0.0.0/8");
  ribin#add_route (mkroute "128.16.0.0/16");
  rec_.log <- [];
  (* New policy rejects 10/8: the background refilter must emit exactly
     one delete. *)
  let it = ribin#safe_iter in
  filter#replace_programs ~loop
    ~pull:(fun () -> Option.map snd (Ptree.Safe_iter.next it))
    [ compile
        "load network\npush.net 10.0.0.0/8\nwithin\njfalse keep\nreject\nlabel keep" ];
  Eventloop.run loop;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "one delete, nothing else" [ ("del", "10.0.0.0/8") ] (ops rec_)

(* --- damping ------------------------------------------------------------ *)

let damping_setup ?(params = Bgp_damping.default_params) () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let damp =
    new Bgp_damping.damping_table ~name:"damp" ~params
      ~parent:(ribin :> Bgp_table.table)
      loop
  in
  Bgp_table.plumb ribin damp;
  let rec_ = recorder ~parent:(damp :> Bgp_table.table) () in
  damp#set_next (Some rec_.tbl);
  (loop, ribin, damp, rec_)

let test_damping_stable_route_passes () =
  let _, ribin, damp, rec_ = damping_setup () in
  ribin#add_route (mkroute "10.0.0.0/8");
  check Alcotest.int "passed" 1 (List.length rec_.log);
  check Alcotest.bool "not suppressed" false (damp#is_suppressed (net "10.0.0.0/8"))

let test_damping_flaps_suppress () =
  let loop, ribin, damp, rec_ = damping_setup () in
  let flap () =
    ribin#add_route (mkroute "10.0.0.0/8");
    ribin#delete_route (mkroute "10.0.0.0/8");
    Eventloop.run_until_time loop (Eventloop.now loop +. 2.0)
  in
  flap ();
  flap ();
  flap ();
  (* Three withdrawals at 1000 each: penalty > 3000 → suppressed. *)
  check Alcotest.bool "suppressed" true (damp#is_suppressed (net "10.0.0.0/8"));
  rec_.log <- [];
  ribin#add_route (mkroute "10.0.0.0/8");
  check Alcotest.int "announcement held" 0 (List.length rec_.log);
  (* Decay eventually re-uses the route: half-life 900s, penalty ~3400
     → reuse (750) needs ~2 half-lives. *)
  Eventloop.run_until_time loop (Eventloop.now loop +. 4000.0);
  check Alcotest.bool "no longer suppressed" false
    (damp#is_suppressed (net "10.0.0.0/8"));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "held route released" [ ("add", "10.0.0.0/8") ] (ops rec_)

let test_damping_counts () =
  let loop, ribin, damp, _ = damping_setup () in
  for _ = 1 to 4 do
    ribin#add_route (mkroute "10.0.0.0/8");
    ribin#delete_route (mkroute "10.0.0.0/8");
    Eventloop.run_until_time loop (Eventloop.now loop +. 1.0)
  done;
  check Alcotest.int "suppressed once" 1 damp#suppressed_count;
  match damp#penalty_of (net "10.0.0.0/8") with
  | Some p -> check Alcotest.bool "penalty accumulated" true (p > 3000.0)
  | None -> Alcotest.fail "no damping state"

(* --- nexthop resolver ----------------------------------------------------- *)

let test_nexthop_resolution_and_queue () =
  (* Async resolver: answers are delivered later; routes queue. *)
  let queries = ref [] in
  let answer_fns = Hashtbl.create 4 in
  let resolve nh cb =
    queries := Ipv4.to_string nh :: !queries;
    Hashtbl.replace answer_fns (Ipv4.to_string nh) cb
  in
  let nht = new Bgp_nexthop.nexthop_table ~name:"nh" ~resolve () in
  let rec_ = recorder ~parent:(nht :> Bgp_table.table) () in
  nht#set_next (Some rec_.tbl);
  nht#add_route (mkroute ~nh:"10.9.0.1" "128.16.0.0/16");
  nht#add_route (mkroute ~nh:"10.9.0.1" "128.17.0.0/16");
  check Alcotest.int "one query for one nexthop" 1 (List.length !queries);
  check Alcotest.int "both held" 2 nht#pending_count;
  check Alcotest.int "nothing emitted yet" 0 (List.length rec_.log);
  (* The RIB answers: both routes flow, annotated. *)
  (Hashtbl.find answer_fns "10.9.0.1")
    { Bgp_nexthop.resolvable = true; metric = 5; valid = net "10.9.0.0/16" };
  check Alcotest.int "both emitted" 2 (List.length rec_.log);
  List.iter
    (fun (_, r) ->
       check (Alcotest.option Alcotest.int) "metric annotation" (Some 5)
         r.Bgp_types.igp_metric)
    rec_.log;
  (* A later route to the same range hits the cache: no new query. *)
  nht#add_route (mkroute ~nh:"10.9.0.7" "128.18.0.0/16");
  check Alcotest.int "cache hit" 1 (List.length !queries);
  check Alcotest.int "emitted immediately" 3 (List.length rec_.log)

let test_nexthop_invalidation () =
  let metric = ref 5 in
  let resolve nh cb =
    cb
      { Bgp_nexthop.resolvable = true; metric = !metric;
        valid = Ipv4net.make nh 16 }
  in
  let nht = new Bgp_nexthop.nexthop_table ~name:"nh" ~resolve () in
  let rec_ = recorder ~parent:(nht :> Bgp_table.table) () in
  nht#set_next (Some rec_.tbl);
  nht#add_route (mkroute ~nh:"10.9.0.1" "128.16.0.0/16");
  rec_.log <- [];
  (* IGP changed: metric now 50. The RIB invalidates the range. *)
  metric := 50;
  nht#invalidate (net "10.9.0.0/16");
  (match List.rev rec_.log with
   | [ ("del", old); ("add", nr) ] ->
     check (Alcotest.option Alcotest.int) "old metric" (Some 5)
       old.Bgp_types.igp_metric;
     check (Alcotest.option Alcotest.int) "new metric" (Some 50)
       nr.Bgp_types.igp_metric
   | l -> Alcotest.failf "expected del+add, got %d entries" (List.length l));
  (* Unrelated invalidation: silence. *)
  rec_.log <- [];
  nht#invalidate (net "172.16.0.0/12");
  check Alcotest.int "unrelated silent" 0 (List.length rec_.log)

let test_nexthop_unresolvable () =
  let resolve nh cb =
    cb { Bgp_nexthop.resolvable = false; metric = 0; valid = Ipv4net.host nh }
  in
  let nht = new Bgp_nexthop.nexthop_table ~name:"nh" ~resolve () in
  let rec_ = recorder ~parent:(nht :> Bgp_table.table) () in
  nht#set_next (Some rec_.tbl);
  nht#add_route (mkroute ~nh:"10.9.0.1" "128.16.0.0/16");
  match rec_.log with
  | [ ("add", r) ] ->
    check (Alcotest.option Alcotest.int) "marked unresolved" None
      r.Bgp_types.igp_metric
  | _ -> Alcotest.fail "route should still flow, annotated unresolved"

(* --- decision ---------------------------------------------------------- *)

let peer_info ?(kind = Bgp_types.Ebgp) ?(bgp_id = "9.9.9.9") id paddr peer_as =
  { Bgp_types.peer_id = id; peer_addr = addr paddr; peer_as; kind;
    peer_bgp_id = addr bgp_id }

(* A trivial parent: a ribin used as a per-branch store. *)
let branch loop id =
  new Bgp_ribin.rib_in ~name:(Printf.sprintf "branch%d" id) ~peer_id:id loop

let decision_setup () =
  let loop = Eventloop.create () in
  let d = new Bgp_decision.decision_table ~name:"decision" () in
  let b1 = branch loop 1 and b2 = branch loop 2 in
  d#add_parent ~info:(peer_info 1 "10.0.0.1" 65001 ~bgp_id:"1.1.1.1") (b1 :> Bgp_table.table);
  d#add_parent ~info:(peer_info 2 "10.0.0.2" 65002 ~bgp_id:"2.2.2.2") (b2 :> Bgp_table.table);
  Bgp_table.plumb b1 d;
  Bgp_table.plumb b2 d;
  let rec_ = recorder ~parent:(d :> Bgp_table.table) () in
  d#set_next (Some rec_.tbl);
  (loop, d, b1, b2, rec_)

let test_decision_prefers_shorter_path () =
  let _, d, b1, b2, rec_ = decision_setup () in
  b1#add_route (mkroute ~peer:1 ~path:[ 65001; 50; 60 ] ~igp:0 "128.16.0.0/16");
  b2#add_route (mkroute ~peer:2 ~path:[ 65002; 60 ] ~igp:0 "128.16.0.0/16");
  (match d#lookup_route (net "128.16.0.0/16") with
   | Some w -> check Alcotest.int "peer 2 wins" 2 w.Bgp_types.peer_id
   | None -> Alcotest.fail "no winner");
  (* downstream saw add(1), then del(1)+add(2) *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "delta stream"
    [ ("add", "128.16.0.0/16"); ("del", "128.16.0.0/16");
      ("add", "128.16.0.0/16") ]
    (ops rec_)

let test_decision_localpref_dominates () =
  let _, d, b1, b2, _ = decision_setup () in
  b1#add_route
    (mkroute ~peer:1 ~path:[ 65001; 50; 60; 70 ] ~localpref:200
       ~igp:0 "128.16.0.0/16");
  b2#add_route (mkroute ~peer:2 ~path:[ 65002 ] ~igp:0 "128.16.0.0/16");
  match d#lookup_route (net "128.16.0.0/16") with
  | Some w -> check Alcotest.int "higher localpref wins" 1 w.Bgp_types.peer_id
  | None -> Alcotest.fail "no winner"

let test_decision_hot_potato () =
  (* Same attributes; lower IGP metric to the nexthop wins. *)
  let _, d, b1, b2, _ = decision_setup () in
  b1#add_route (mkroute ~peer:1 ~path:[ 65001 ] ~igp:30 "128.16.0.0/16");
  b2#add_route (mkroute ~peer:2 ~path:[ 65002 ] ~igp:3 "128.16.0.0/16");
  match d#lookup_route (net "128.16.0.0/16") with
  | Some w -> check Alcotest.int "nearest exit wins" 2 w.Bgp_types.peer_id
  | None -> Alcotest.fail "no winner"

let test_decision_ignores_unresolved () =
  let _, d, b1, b2, rec_ = decision_setup () in
  b1#add_route (mkroute ~peer:1 "128.16.0.0/16");
  check Alcotest.bool "unresolved not chosen" true
    (d#lookup_route (net "128.16.0.0/16") = None);
  check Alcotest.int "nothing emitted" 0 (List.length rec_.log);
  b2#add_route (mkroute ~peer:2 ~path:[ 65002; 60 ] ~igp:0 "128.16.0.0/16");
  match d#lookup_route (net "128.16.0.0/16") with
  | Some w -> check Alcotest.int "resolved one wins" 2 w.Bgp_types.peer_id
  | None -> Alcotest.fail "no winner"

let test_decision_failover_on_delete () =
  let _, d, b1, b2, rec_ = decision_setup () in
  b1#add_route (mkroute ~peer:1 ~path:[ 65001 ] ~igp:0 "128.16.0.0/16");
  b2#add_route
    (mkroute ~peer:2 ~path:[ 65002; 60 ] ~igp:0 "128.16.0.0/16");
  (match d#lookup_route (net "128.16.0.0/16") with
   | Some w -> check Alcotest.int "peer1 wins first" 1 w.Bgp_types.peer_id
   | None -> Alcotest.fail "no winner");
  rec_.log <- [];
  b1#delete_route (mkroute ~peer:1 "128.16.0.0/16");
  (match d#lookup_route (net "128.16.0.0/16") with
   | Some w -> check Alcotest.int "fails over to peer2" 2 w.Bgp_types.peer_id
   | None -> Alcotest.fail "no winner after failover");
  (match List.rev rec_.log with
   | [ ("del", o); ("add", n) ] ->
     check Alcotest.int "old winner deleted" 1 o.Bgp_types.peer_id;
     check Alcotest.int "new winner added" 2 n.Bgp_types.peer_id
   | l -> Alcotest.failf "expected del+add, got %d" (List.length l));
  rec_.log <- [];
  b2#delete_route (mkroute ~peer:2 "128.16.0.0/16");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "final delete" [ ("del", "128.16.0.0/16") ] (ops rec_)

let test_decision_tiebreak_bgp_id () =
  let _, d, b1, b2, _ = decision_setup () in
  (* identical in every respect except the peer's BGP id (1.1.1.1 vs
     2.2.2.2) *)
  b1#add_route (mkroute ~peer:1 ~path:[ 65001 ] ~igp:0 "128.16.0.0/16");
  b2#add_route (mkroute ~peer:2 ~path:[ 65002 ] ~igp:0 "128.16.0.0/16");
  match d#lookup_route (net "128.16.0.0/16") with
  | Some w -> check Alcotest.int "lowest BGP id" 1 w.Bgp_types.peer_id
  | None -> Alcotest.fail "no winner"

(* --- fanout ------------------------------------------------------------- *)

let fanout_setup () =
  let loop = Eventloop.create () in
  let infos = Hashtbl.create 4 in
  let f =
    new Bgp_fanout.fanout_table ~name:"fanout" ~batch:10
      ~peer_info_of:(fun id -> Hashtbl.find_opt infos id)
      loop
  in
  let add_reader ?(kind = Bgp_types.Ebgp) id =
    let info = peer_info ~kind id (Printf.sprintf "10.0.0.%d" id) (65000 + id) in
    Hashtbl.replace infos id info;
    let rec_ = recorder () in
    f#add_reader ~info rec_.tbl;
    rec_
  in
  (loop, f, infos, add_reader)

let test_fanout_duplication_and_echo () =
  let loop, f, _, add_reader = fanout_setup () in
  let r1 = add_reader 1 and r2 = add_reader 2 and r3 = add_reader 3 in
  f#add_route (mkroute ~peer:1 "10.0.0.0/8");
  Eventloop.run loop;
  check Alcotest.int "origin peer skipped" 0 (List.length r1.log);
  check Alcotest.int "peer2 got it" 1 (List.length r2.log);
  check Alcotest.int "peer3 got it" 1 (List.length r3.log)

let test_fanout_ibgp_rules () =
  let loop, f, _, add_reader = fanout_setup () in
  let _i1 = add_reader ~kind:Bgp_types.Ibgp 1 in
  let i2 = add_reader ~kind:Bgp_types.Ibgp 2 in
  let e3 = add_reader ~kind:Bgp_types.Ebgp 3 in
  (* Route learned from IBGP peer 1: must reach EBGP peer 3, not IBGP
     peer 2. *)
  f#add_route (mkroute ~peer:1 "10.0.0.0/8");
  Eventloop.run loop;
  check Alcotest.int "no ibgp reflection" 0 (List.length i2.log);
  check Alcotest.int "ebgp gets it" 1 (List.length e3.log)

let test_fanout_local_routes_everywhere () =
  let loop, f, _, add_reader = fanout_setup () in
  let i1 = add_reader ~kind:Bgp_types.Ibgp 1 in
  let e2 = add_reader ~kind:Bgp_types.Ebgp 2 in
  f#add_route (mkroute ~peer:0 "172.16.0.0/12");
  Eventloop.run loop;
  check Alcotest.int "ibgp" 1 (List.length i1.log);
  check Alcotest.int "ebgp" 1 (List.length e2.log)

let test_fanout_queue_compaction () =
  let loop, f, _, add_reader = fanout_setup () in
  let _r1 = add_reader 1 and _r2 = add_reader 2 in
  for i = 0 to 99 do
    f#add_route (mkroute ~peer:1 (Printf.sprintf "10.%d.0.0/16" i))
  done;
  check Alcotest.bool "queued" true (f#queue_length > 0);
  Eventloop.run loop;
  check Alcotest.int "drained and compacted" 0 f#queue_length;
  check Alcotest.bool "peak recorded" true (f#peak_queue_length >= 90)

let test_fanout_slow_reader_budget () =
  (* With batch=10, a 100-entry burst needs 10 deferred passes; the
     queue drains without any reader ever seeing out-of-order data. *)
  let loop, f, _, add_reader = fanout_setup () in
  let r2 = add_reader 2 in
  for i = 0 to 99 do
    f#add_route (mkroute ~peer:1 (Printf.sprintf "10.%d.0.0/16" i))
  done;
  Eventloop.run loop;
  let seen = List.rev_map (fun (_, r) -> Ipv4net.to_string r.Bgp_types.net) r2.log in
  check Alcotest.int "all delivered" 100 (List.length seen);
  let expected = List.init 100 (fun i -> Printf.sprintf "10.%d.0.0/16" i) in
  check (Alcotest.list Alcotest.string) "in order" expected seen

let test_fanout_remove_reader_mid_stream () =
  let loop, f, _, add_reader = fanout_setup () in
  let r2 = add_reader 2 and r3 = add_reader 3 in
  for i = 0 to 19 do
    f#add_route (mkroute ~peer:1 (Printf.sprintf "10.%d.0.0/16" i))
  done;
  Eventloop.run loop;
  check Alcotest.int "both caught up" 20 (List.length r2.log);
  (* Remove reader 2, keep pushing: only reader 3 advances, and the
     queue still compacts to empty. *)
  f#remove_reader 2;
  for i = 20 to 39 do
    f#add_route (mkroute ~peer:1 (Printf.sprintf "10.%d.0.0/16" i))
  done;
  Eventloop.run loop;
  check Alcotest.int "removed reader frozen" 20 (List.length r2.log);
  check Alcotest.int "remaining reader complete" 40 (List.length r3.log);
  check Alcotest.int "queue compacted" 0 f#queue_length

(* --- ribout -------------------------------------------------------------- *)

let ribout_setup ?(kind = Bgp_types.Ebgp) () =
  let loop = Eventloop.create () in
  let sent = ref [] in
  let info = peer_info ~kind 7 "10.0.0.7" 65007 in
  let out =
    new Bgp_ribout.rib_out ~name:"out" ~info ~local_as:65000
      ~local_addr:(addr "10.0.0.254")
      ~send:(fun msg ->
          sent := msg :: !sent;
          true)
      loop
  in
  (loop, out, sent)

let test_ribout_ebgp_transforms () =
  let loop, out, sent = ribout_setup () in
  out#add_route
    (mkroute ~peer:1 ~path:[ 65001 ] ~localpref:200 ~med:5
       "128.16.0.0/16");
  Eventloop.run loop;
  match !sent with
  | [ Bgp_packet.Update { nlri = [ n ]; attrs = Some a; withdrawn = [] } ] ->
    check Alcotest.string "nlri" "128.16.0.0/16" (Ipv4net.to_string n);
    check Alcotest.string "AS prepended" "65000 65001"
      (Aspath.to_string a.Bgp_types.aspath);
    check Alcotest.string "nexthop self" "10.0.0.254"
      (Ipv4.to_string a.Bgp_types.nexthop);
    check Alcotest.bool "localpref stripped" true (a.Bgp_types.localpref = None);
    check Alcotest.bool "med stripped" true (a.Bgp_types.med = None)
  | l -> Alcotest.failf "expected one update, got %d" (List.length l)

let test_ribout_ibgp_preserves () =
  let loop, out, sent = ribout_setup ~kind:Bgp_types.Ibgp () in
  out#add_route
    (mkroute ~peer:1 ~path:[ 65001 ] ~localpref:200 ~nh:"10.0.9.9"
       "128.16.0.0/16");
  Eventloop.run loop;
  match !sent with
  | [ Bgp_packet.Update { attrs = Some a; _ } ] ->
    check Alcotest.string "no prepend" "65001" (Aspath.to_string a.Bgp_types.aspath);
    check Alcotest.string "nexthop unchanged" "10.0.9.9"
      (Ipv4.to_string a.Bgp_types.nexthop);
    check (Alcotest.option Alcotest.int) "localpref explicit" (Some 200)
      a.Bgp_types.localpref
  | l -> Alcotest.failf "expected one update, got %d" (List.length l)

let test_ribout_loop_prevention () =
  let loop, out, sent = ribout_setup () in
  (* Peer AS 65007 already in the path: do not advertise. *)
  out#add_route (mkroute ~peer:1 ~path:[ 65001; 65007 ] "128.16.0.0/16");
  Eventloop.run loop;
  check Alcotest.int "suppressed" 0 (List.length !sent);
  check Alcotest.int "not in adj-rib-out" 0 out#advertised_count

let test_ribout_batching () =
  let loop, out, sent = ribout_setup () in
  (* Many routes with identical attributes must share UPDATEs. *)
  for i = 0 to 49 do
    out#add_route (mkroute ~peer:1 ~path:[ 65001 ] (Printf.sprintf "10.%d.0.0/16" i))
  done;
  out#delete_route (mkroute ~peer:1 ~path:[ 65001 ] "10.3.0.0/16");
  Eventloop.run loop;
  let updates = List.length !sent in
  check Alcotest.bool "batched into few messages" true (updates <= 3);
  let total_nlri =
    List.fold_left
      (fun acc m ->
         match m with
         | Bgp_packet.Update { nlri; _ } -> acc + List.length nlri
         | _ -> acc)
      0 !sent
  in
  (* 10.3.0.0/16 was announced and withdrawn within the batch: the
     last change wins, so 49 announcements and no withdrawal (it was
     never advertised). *)
  check Alcotest.int "net announcements" 49 total_nlri;
  check Alcotest.int "adj-rib-out" 49 out#advertised_count

(* --- aggregation ------------------------------------------------------------ *)

let aggregation_setup ?(suppress = true) () =
  let loop = Eventloop.create () in
  let upstream = new Bgp_ribin.rib_in ~name:"up" ~peer_id:1 loop in
  let agg =
    new Bgp_aggregation.aggregation_table ~name:"agg"
      ~aggregates:
        [ { Bgp_aggregation.agg_net = net "10.0.0.0/8";
            suppress_specifics = suppress } ]
      ~local_nexthop:(addr "192.0.2.1")
      ~parent:(upstream :> Bgp_table.table)
      ()
  in
  Bgp_table.plumb upstream agg;
  let rec_ = recorder ~parent:(agg :> Bgp_table.table) () in
  agg#set_next (Some rec_.tbl);
  (upstream, agg, rec_)

let test_aggregation_announce_withdraw () =
  let upstream, agg, rec_ = aggregation_setup () in
  (* First component inside 10/8: the aggregate appears, the specific
     is suppressed. *)
  upstream#add_route (mkroute ~path:[ 65001 ] "10.1.0.0/24");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "only the aggregate" [ ("add", "10.0.0.0/8") ] (ops rec_);
  (match rec_.log with
   | [ (_, r) ] ->
     check Alcotest.bool "atomic aggregate" true
       r.Bgp_types.attrs.Bgp_types.atomic_aggregate;
     check Alcotest.int "locally originated" 0 r.Bgp_types.peer_id
   | _ -> Alcotest.fail "expected one entry");
  (* Second component: nothing new downstream. *)
  upstream#add_route (mkroute ~path:[ 65001 ] "10.2.0.0/24");
  check Alcotest.int "still one message" 1 (List.length rec_.log);
  (* Routes outside the aggregate pass untouched. *)
  upstream#add_route (mkroute ~path:[ 65001 ] "172.16.0.0/16");
  check Alcotest.int "outsider passed" 2 (List.length rec_.log);
  (* Withdraw one component: aggregate stays. *)
  upstream#delete_route (mkroute "10.1.0.0/24");
  check Alcotest.int "aggregate survives" 2 (List.length rec_.log);
  check Alcotest.bool "still active" true (agg#active (net "10.0.0.0/8"));
  (* Withdraw the last: aggregate withdrawn. *)
  upstream#delete_route (mkroute "10.2.0.0/24");
  (match rec_.log with
   | ("del", r) :: _ ->
     check Alcotest.string "aggregate withdrawn" "10.0.0.0/8"
       (Ipv4net.to_string r.Bgp_types.net)
   | _ -> Alcotest.fail "expected aggregate withdrawal");
  check Alcotest.bool "inactive" false (agg#active (net "10.0.0.0/8"))

let test_aggregation_without_suppression () =
  let upstream, _agg, rec_ = aggregation_setup ~suppress:false () in
  upstream#add_route (mkroute ~path:[ 65001 ] "10.1.0.0/24");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "aggregate plus specific"
    [ ("add", "10.0.0.0/8"); ("add", "10.1.0.0/24") ]
    (ops rec_)

let test_aggregation_lookup () =
  let upstream, agg, _ = aggregation_setup () in
  upstream#add_route (mkroute "10.1.0.0/24");
  (match agg#lookup_route (net "10.0.0.0/8") with
   | Some r -> check Alcotest.int "synthesized" 0 r.Bgp_types.peer_id
   | None -> Alcotest.fail "aggregate not visible to lookups");
  (* Suppressed specifics are invisible downstream. *)
  check Alcotest.bool "specific hidden" true
    (agg#lookup_route (net "10.1.0.0/24") = None)

(* --- checking cache -------------------------------------------------------- *)

let test_cache_detects_violation () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let cache =
    new Bgp_cache.cache_table ~name:"cache"
      ~parent:(ribin :> Bgp_table.table) ()
  in
  Bgp_table.plumb ribin cache;
  let rec_ = recorder ~parent:(cache :> Bgp_table.table) () in
  cache#set_next (Some rec_.tbl);
  ribin#add_route (mkroute "10.0.0.0/8");
  ribin#delete_route (mkroute "10.0.0.0/8");
  check Alcotest.int "clean stream, no violations" 0 cache#violation_count;
  (* Inject a rule violation directly. *)
  cache#delete_route (mkroute "99.0.0.0/8");
  check Alcotest.int "delete-without-add caught" 1 cache#violation_count;
  check Alcotest.bool "still passed through" true
    (List.exists (fun (op, r) -> op = "del" && Ipv4net.to_string r.Bgp_types.net = "99.0.0.0/8") rec_.log)

(* The cache learns the fourth operation: a PeerIn replacement passes as
   one replace with a clean record, and a replace for a prefix that was
   never added is a violation that still passes through. *)
let test_cache_checks_replace () =
  let loop = Eventloop.create () in
  let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
  let cache =
    new Bgp_cache.cache_table ~name:"cache"
      ~parent:(ribin :> Bgp_table.table) ()
  in
  Bgp_table.plumb ribin cache;
  let rec_ = recorder ~parent:(cache :> Bgp_table.table) () in
  cache#set_next (Some rec_.tbl);
  ribin#add_route (mkroute "10.0.0.0/8");
  ribin#add_route (mkroute ~path:[ 65001; 65002 ] "10.0.0.0/8");
  check Alcotest.int "replacement is clean" 0 cache#violation_count;
  (match rec_.log with
   | ("add", nr) :: ("del", old) :: _ ->
     check Alcotest.int "old path len" 1
       (Aspath.length old.Bgp_types.attrs.aspath);
     check Alcotest.int "new path len" 2
       (Aspath.length nr.Bgp_types.attrs.aspath)
   | _ -> Alcotest.fail "expected the replace to reach the recorder");
  check Alcotest.bool "cache agrees with the PeerIn" true
    (cache#lookup_route (net "10.0.0.0/8") <> None
     && cache#violation_count = 0);
  cache#replace_route (mkroute "99.0.0.0/8") (mkroute "99.0.0.0/8");
  check Alcotest.int "replace-without-add caught" 1 cache#violation_count;
  check Alcotest.bool "still passed through" true
    (List.exists
       (fun (op, r) ->
          op = "add" && Ipv4net.to_string r.Bgp_types.net = "99.0.0.0/8")
       rec_.log)

let () =
  Alcotest.run "xorp_bgp_stages"
    [
      ( "ribin",
        [
          Alcotest.test_case "store and replace" `Quick test_ribin_basic;
          Alcotest.test_case "gradual deletion stage" `Quick
            test_deletion_stage_gradual;
          Alcotest.test_case "flap consistency" `Quick
            test_deletion_stage_flap_consistency;
        ] );
      ( "filters",
        [
          Alcotest.test_case "reject and modify" `Quick test_filter_reject_modify;
          Alcotest.test_case "aspath prepend" `Quick test_filter_aspath_prepend;
          Alcotest.test_case "background refilter" `Quick test_filter_refilter;
        ] );
      ( "damping",
        [
          Alcotest.test_case "stable route passes" `Quick
            test_damping_stable_route_passes;
          Alcotest.test_case "flaps suppress, decay reuses" `Quick
            test_damping_flaps_suppress;
          Alcotest.test_case "counters" `Quick test_damping_counts;
        ] );
      ( "nexthop",
        [
          Alcotest.test_case "async resolution queue" `Quick
            test_nexthop_resolution_and_queue;
          Alcotest.test_case "invalidation re-annotates" `Quick
            test_nexthop_invalidation;
          Alcotest.test_case "unresolvable flagged" `Quick
            test_nexthop_unresolvable;
        ] );
      ( "decision",
        [
          Alcotest.test_case "shorter path wins" `Quick
            test_decision_prefers_shorter_path;
          Alcotest.test_case "localpref dominates" `Quick
            test_decision_localpref_dominates;
          Alcotest.test_case "hot potato" `Quick test_decision_hot_potato;
          Alcotest.test_case "ignores unresolved" `Quick
            test_decision_ignores_unresolved;
          Alcotest.test_case "failover on delete" `Quick
            test_decision_failover_on_delete;
          Alcotest.test_case "bgp-id tie-break" `Quick
            test_decision_tiebreak_bgp_id;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "duplication, no echo" `Quick
            test_fanout_duplication_and_echo;
          Alcotest.test_case "ibgp rules" `Quick test_fanout_ibgp_rules;
          Alcotest.test_case "local routes everywhere" `Quick
            test_fanout_local_routes_everywhere;
          Alcotest.test_case "queue compaction" `Quick
            test_fanout_queue_compaction;
          Alcotest.test_case "slow-reader budget" `Quick
            test_fanout_slow_reader_budget;
          Alcotest.test_case "remove reader mid-stream" `Quick
            test_fanout_remove_reader_mid_stream;
        ] );
      ( "ribout",
        [
          Alcotest.test_case "ebgp transforms" `Quick test_ribout_ebgp_transforms;
          Alcotest.test_case "ibgp preserves" `Quick test_ribout_ibgp_preserves;
          Alcotest.test_case "loop prevention" `Quick test_ribout_loop_prevention;
          Alcotest.test_case "batching" `Quick test_ribout_batching;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "announce and withdraw" `Quick
            test_aggregation_announce_withdraw;
          Alcotest.test_case "without suppression" `Quick
            test_aggregation_without_suppression;
          Alcotest.test_case "lookups" `Quick test_aggregation_lookup;
        ] );
      ( "cache",
        [
          Alcotest.test_case "violation detection" `Quick
            test_cache_detects_violation;
          Alcotest.test_case "replace checked" `Quick test_cache_checks_replace;
        ] );
    ]
