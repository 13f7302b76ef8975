(* Tests for the sharded pipeline (lib/shard, docs/CONCURRENCY.md):
   the prefix-range partition, the cross-domain mailbox and eventloop
   wakeup primitives, the per-range engine checked against the real
   single-domain decision table and RIB under random update sequences,
   and a live multi-domain pool compared with a single-domain RIB. *)

let check = Alcotest.check
let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* --- prefix-range partition ------------------------------------------ *)

let test_shard_bits () =
  check Alcotest.int "1 shard" 0 (Ptree.shard_bits 1);
  check Alcotest.int "2 shards" 1 (Ptree.shard_bits 2);
  check Alcotest.int "3 shards" 2 (Ptree.shard_bits 3);
  check Alcotest.int "4 shards" 2 (Ptree.shard_bits 4);
  check Alcotest.int "8 shards" 3 (Ptree.shard_bits 8);
  Alcotest.check_raises "0 shards" (Invalid_argument "Ptree.shard_bits")
    (fun () -> ignore (Ptree.shard_bits 0))

let test_shard_of () =
  (* every prefix maps somewhere in range, nested prefixes stay
     together, and ownership is monotone in the network address *)
  List.iter
    (fun shards ->
       let prev = ref 0 in
       for hi = 0 to 255 do
         let n = Ipv4net.make (Ipv4.of_octets hi 0 0 0) 8 in
         let s = Ptree.shard_of ~shards n in
         if not (s >= 0 && s < shards) then
           Alcotest.failf "shard_of out of range: %d" s;
         if s < !prev then Alcotest.fail "shard_of not monotone";
         prev := s;
         let inner = Ipv4net.make (Ipv4.of_octets hi 42 7 0) 24 in
         check Alcotest.int "more-specific shares the shard" s
           (Ptree.shard_of ~shards inner)
       done)
    [ 1; 2; 3; 4; 8 ];
  check Alcotest.int "default prefix owned by shard 0" 0
    (Ptree.shard_of ~shards:8 Ipv4net.default)

let test_split_points () =
  let pts = Ptree.split_points ~shards:4 in
  check Alcotest.int "four points" 4 (List.length pts);
  check Alcotest.string "range starts"
    "0.0.0.0/2 64.0.0.0/2 128.0.0.0/2 192.0.0.0/2"
    (String.concat " " (List.map Ipv4net.to_string pts));
  (* each range start is owned by its own shard *)
  List.iteri
    (fun i p -> check Alcotest.int "start ownership" i
        (Ptree.shard_of ~shards:4 p))
    pts

let test_partition_merge () =
  let t = Ptree.create () in
  for hi = 0 to 199 do
    ignore (Ptree.insert t (Ipv4net.make (Ipv4.of_octets hi 1 0 0) 16) hi)
  done;
  let parts = Ptree.partition ~shards:4 t in
  check Alcotest.int "no binding lost"
    (Ptree.size t)
    (Array.fold_left (fun acc p -> acc + Ptree.size p) 0 parts);
  Array.iteri
    (fun s p ->
       Ptree.iter
         (fun n _ ->
            check Alcotest.int "binding in its owner slice" s
              (Ptree.shard_of ~shards:4 n))
         p)
    parts;
  let merged = Ptree.merge_disjoint parts in
  check Alcotest.int "merge restores size" (Ptree.size t) (Ptree.size merged);
  Ptree.iter
    (fun n v ->
       match Ptree.find merged n with
       | Some v' when v' = v -> ()
       | _ -> Alcotest.failf "binding lost for %s" (Ipv4net.to_string n))
    t;
  Alcotest.check_raises "duplicate key rejected"
    (Invalid_argument
       "Ptree.merge_disjoint: duplicate key 0.1.0.0/16")
    (fun () -> ignore (Ptree.merge_disjoint [| t; parts.(0) |]))

(* --- cross-domain mailbox -------------------------------------------- *)

let test_mailbox_lanes () =
  let mb = Mailbox.create () in
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") "b1";
  Mailbox.push mb Laneq.Urgent ~net:(net "10.2.0.0/16") "u1";
  Mailbox.push mb Laneq.Bulk ~net:(net "10.3.0.0/16") "b2";
  Mailbox.push mb Laneq.Urgent ~net:(net "10.4.0.0/16") "u2";
  check Alcotest.int "length" 4 (Mailbox.length mb);
  let drained = Mailbox.drain mb in
  check
    Alcotest.(list string)
    "urgent lane first, FIFO within each lane"
    [ "u1"; "u2"; "b1"; "b2" ]
    (List.map snd drained);
  check Alcotest.bool "drained empty" true (Mailbox.is_empty mb)

let test_mailbox_demotion () =
  let mb = Mailbox.create ~ordered:true () in
  let n = net "10.1.0.0/16" in
  Mailbox.push mb Laneq.Bulk ~net:n "bulk";
  Mailbox.push mb Laneq.Urgent ~net:n "urgent-demoted";
  check Alcotest.int "demotion recorded" 1 (Mailbox.demoted mb);
  check
    Alcotest.(list string)
    "per-prefix FIFO preserved across lanes"
    [ "bulk"; "urgent-demoted" ]
    (List.map snd (Mailbox.drain mb))

(* Shard broadcasts ride the bulk lane as fences. An urgent op for any
   other prefix pushed after one must not be drained before it: a
   worker that took a new BGP's routes before the reset broadcast ahead
   of them would wipe them. The per-prefix guard cannot do this: keyed
   on 0.0.0.0/0, a broadcast would hold back only that prefix. *)
let test_mailbox_fence () =
  let mb = Mailbox.create () in
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") "older bulk";
  Mailbox.push_fence mb Laneq.Bulk "broadcast";
  Mailbox.push mb Laneq.Urgent ~net:(net "10.2.0.0/16") "urgent";
  check
    Alcotest.(list string)
    "nothing overtakes the fence"
    [ "older bulk"; "broadcast"; "urgent" ]
    (List.map snd (Mailbox.drain mb));
  (* Once drained, the fence holds nothing back. *)
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") "bulk";
  Mailbox.push mb Laneq.Urgent ~net:(net "10.2.0.0/16") "urgent again";
  check
    Alcotest.(list string)
    "urgent overtakes plain bulk again"
    [ "urgent again"; "bulk" ]
    (List.map snd (Mailbox.drain mb));
  (* A plain push keyed on the default route is an ordinary route. *)
  Mailbox.push mb Laneq.Bulk ~net:Ipv4net.default "default route";
  Mailbox.push mb Laneq.Urgent ~net:(net "10.2.0.0/16") "flap";
  check
    Alcotest.(list string)
    "0.0.0.0/0 is no fence"
    [ "flap"; "default route" ]
    (List.map snd (Mailbox.drain mb))

let test_mailbox_bulk_slice () =
  let mb = Mailbox.create () in
  for i = 1 to 10 do
    Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") i
  done;
  Mailbox.push mb Laneq.Urgent ~net:(net "10.2.0.0/16") 99;
  let batch = Mailbox.drain ~bulk_slice:3 mb in
  (* urgent drains dry, bulk is bounded *)
  check
    Alcotest.(list int)
    "urgent dry + bounded bulk" [ 99; 1; 2; 3 ] (List.map snd batch);
  check Alcotest.int "rest still queued" 7 (Mailbox.length mb)

let test_mailbox_wakeup () =
  let fired = ref 0 in
  let mb = Mailbox.create ~on_wakeup:(fun () -> incr fired) () in
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") 1;
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") 2;
  check Alcotest.int "only the empty->non-empty transition fires" 1 !fired;
  ignore (Mailbox.drain mb);
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") 3;
  check Alcotest.int "fires again after drain" 2 !fired

let test_mailbox_close () =
  let mb = Mailbox.create () in
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") 1;
  Mailbox.close mb;
  check Alcotest.bool "closed" true (Mailbox.is_closed mb);
  Mailbox.push mb Laneq.Bulk ~net:(net "10.1.0.0/16") 2;
  check Alcotest.int "push after close dropped" 1 (Mailbox.length mb);
  check
    Alcotest.(list int)
    "drain_wait hands out the remainder" [ 1 ]
    (List.map snd (Mailbox.drain_wait mb));
  check
    Alcotest.(list int)
    "then reports closed-and-empty" []
    (List.map snd (Mailbox.drain_wait mb))

let test_mailbox_timeout () =
  let mb : int Mailbox.t = Mailbox.create () in
  let t0 = Unix.gettimeofday () in
  let out = Mailbox.drain_wait ~timeout_s:0.05 mb in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.(list int) "timeout yields nothing" [] (List.map snd out);
  if dt < 0.04 || dt > 2.0 then Alcotest.failf "odd timeout wait: %.3fs" dt

let test_mailbox_cross_domain () =
  let mb = Mailbox.create () in
  let total = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to total do
          let lane = if i mod 7 = 0 then Laneq.Urgent else Laneq.Bulk in
          Mailbox.push mb lane ~net:(net "10.1.0.0/16") i
        done;
        Mailbox.close mb)
  in
  (* per-prefix FIFO: everything is one prefix, so the consumer must
     see values in strictly increasing order regardless of lanes *)
  let seen = ref 0 and last = ref 0 and ok = ref true in
  let rec consume () =
    match Mailbox.drain_wait ~bulk_slice:512 mb with
    | [] -> ()
    | batch ->
      List.iter
        (fun (_, v) ->
           incr seen;
           if v <= !last then ok := false;
           last := v)
        batch;
      consume ()
  in
  consume ();
  Domain.join producer;
  check Alcotest.bool "strictly increasing across domains" true !ok;
  check Alcotest.int "nothing lost" total !seen

(* --- cross-domain eventloop wakeup ----------------------------------- *)

let test_post_sim () =
  let loop = Eventloop.create () in
  let ran = ref false in
  check Alcotest.bool "quiescent before" true (Eventloop.quiescent loop);
  let d =
    Domain.spawn (fun () -> Eventloop.post loop (fun () -> ran := true))
  in
  Domain.join d;
  check Alcotest.bool "posted work counts as pending" false
    (Eventloop.quiescent loop);
  Eventloop.run_until_idle loop;
  check Alcotest.bool "ran on the loop's domain" true !ran;
  check Alcotest.bool "quiescent after" true (Eventloop.quiescent loop)

let test_post_real_wakeup () =
  let loop = Eventloop.create ~mode:`Real () in
  let ran = ref false in
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        Eventloop.post loop (fun () -> ran := true))
  in
  (* The posting domain fires mid-select; the self-pipe must wake the
     loop well before many 100ms select timeouts elapse. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not !ran) && Unix.gettimeofday () < deadline do
    ignore (Eventloop.run_once loop)
  done;
  Domain.join d;
  check Alcotest.bool "woken and ran" true !ran

let test_post_fifo () =
  let loop = Eventloop.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Eventloop.post loop (fun () -> order := i :: !order)
  done;
  Eventloop.run_until_idle loop;
  check Alcotest.(list int) "posted callbacks run in order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

(* --- engine vs the single-domain pipeline (QCheck) -------------------- *)

(* Universe: BGP prefixes spread across the top bits (so a multi-shard
   split actually separates them), internal prefixes that cover some
   nexthops but not others (so the extint gate opens and closes), and
   XRL-external prefixes disjoint from the BGP-fed ones. *)
let bgp_nets =
  Array.map net
    [| "8.1.0.0/16"; "32.6.0.0/16"; "64.2.0.0/16"; "128.3.0.0/16";
       "160.7.0.0/16"; "200.4.0.0/16"; "250.5.0.0/16"; "8.1.128.0/17" |]

let int_nets =
  Array.map net [| "10.0.0.0/8"; "192.0.0.0/8"; "7.0.0.0/8"; "10.9.0.0/16" |]

let ext_nets = Array.map net [| "77.1.0.0/16"; "78.2.0.0/16"; "79.3.0.0/16" |]
let nexthops =
  Array.map addr [| "10.9.0.1"; "192.168.0.1"; "7.7.7.7"; "99.9.9.9" |]

let internal_protocols = [| "connected"; "static"; "ospf"; "rip" |]

let peer_infos =
  [ (1, Bgp_types.Ebgp, 65001); (2, Bgp_types.Ebgp, 65002);
    (3, Bgp_types.Ibgp, 65000); (4, Bgp_types.Ibgp, 65000) ]
  |> List.map (fun (peer_id, kind, peer_as) ->
      { Bgp_types.peer_id; peer_addr = Ipv4.of_octets 10 0 0 peer_id;
        peer_as; kind;
        peer_bgp_id = Ipv4.of_octets peer_id peer_id peer_id peer_id })

type gop =
  | GBgpAdd of int * int * int * int * int * int
      (* peer idx, net idx, nexthop idx, med, localpref, igp metric *)
  | GBgpDel of int * int (* peer idx, net idx *)
  | GIntAdd of int * int * int * int (* proto idx, net idx, nh idx, metric *)
  | GIntDel of int * int (* proto idx, net idx *)
  | GExtAdd of bool * int * int (* ibgp?, net idx, nh idx *)
  | GExtDel of bool * int (* ibgp?, net idx *)

let gen_op =
  QCheck.Gen.(
    frequency
      [ (5,
         map
           (fun (p, n, nh, (med, lp, igp)) -> GBgpAdd (p, n, nh, med, lp, igp))
           (quad (int_range 0 3)
              (int_range 0 (Array.length bgp_nets - 1))
              (int_range 0 (Array.length nexthops - 1))
              (triple (int_range 0 3) (int_range 90 110) (int_range 0 3))));
        (3,
         map2 (fun p n -> GBgpDel (p, n)) (int_range 0 3)
           (int_range 0 (Array.length bgp_nets - 1)));
        (3,
         map
           (fun (p, n, nh, m) -> GIntAdd (p, n, nh, m))
           (quad (int_range 0 3)
              (int_range 0 (Array.length int_nets - 1))
              (int_range 0 (Array.length nexthops - 1))
              (int_range 0 5)));
        (2,
         map2 (fun p n -> GIntDel (p, n)) (int_range 0 3)
           (int_range 0 (Array.length int_nets - 1)));
        (2,
         map
           (fun (i, n, nh) -> GExtAdd (i, n, nh))
           (triple bool
              (int_range 0 (Array.length ext_nets - 1))
              (int_range 0 (Array.length nexthops - 1))));
        (1,
         map2 (fun i n -> GExtDel (i, n)) bool
           (int_range 0 (Array.length ext_nets - 1))) ])

let make_bgp_route ~peer ~neti ~nhi ~med ~lp ~igp =
  let info = List.nth peer_infos peer in
  { Bgp_types.net = bgp_nets.(neti);
    attrs =
      { (Bgp_types.default_attrs ~nexthop:nexthops.(nhi)) with
        Bgp_types.aspath = Aspath.prepend info.peer_as Aspath.empty;
        med = Some med;
        localpref =
          (if info.kind = Bgp_types.Ibgp then Some lp else None) };
    peer_id = info.peer_id;
    igp_metric = Some igp }

(* A minimal peer branch: stores the latest route per prefix and lets
   the pull-based decision table look it up. *)
class stub_branch name =
  object
    inherit Bgp_table.base name
    val store : (Ipv4net.t, Bgp_types.route) Hashtbl.t = Hashtbl.create 16
    method add_route (r : Bgp_types.route) =
      Hashtbl.replace store r.Bgp_types.net r
    method delete_route (r : Bgp_types.route) =
      Hashtbl.remove store r.Bgp_types.net
    method lookup_route n = Hashtbl.find_opt store n
  end

let prop_engine_matches_single_domain =
  QCheck.Test.make ~name:"engine: sharded = single-domain decision+RIB"
    ~count:30
    QCheck.(
      pair (make ~print:(fun n -> string_of_int n) Gen.(oneofl [ 1; 2; 4 ]))
        (make Gen.(list_size (int_range 60 200) gen_op)))
    (fun (shards, ops) ->
       (* reference: the real decision table over stub peer branches,
          its winner stream feeding the real single-domain RIB exactly
          as Bgp_process's RIB branch would *)
       let loop = Eventloop.create () in
       let finder = Finder.create () in
       let rib = Rib.create ~send_to_fea:false finder loop () in
       let decision = new Bgp_decision.decision_table ~name:"decision" () in
       let branches =
         List.map
           (fun info ->
              let b =
                new stub_branch
                  (Printf.sprintf "peer%d" info.Bgp_types.peer_id)
              in
              decision#add_parent ~info (b :> Bgp_table.table);
              (info.Bgp_types.peer_id, b))
           peer_infos
       in
       let kind_of peer_id =
         (List.find
            (fun i -> i.Bgp_types.peer_id = peer_id)
            peer_infos).Bgp_types.kind
       in
       let proto_of (r : Bgp_types.route) =
         match kind_of r.peer_id with
         | Bgp_types.Ibgp -> "ibgp"
         | Bgp_types.Ebgp -> "ebgp"
       in
       let rib_branch =
         object
           method tbl_name = "ref-rib-branch"
           method set_next (_ : Bgp_table.table option) = ()
           method lookup_route (_ : Ipv4net.t) : Bgp_types.route option =
             None
           method add_route (r : Bgp_types.route) =
             (match
                Rib.add_route rib ~protocol:(proto_of r) ~net:r.net
                  ~nexthop:r.attrs.nexthop
                  ~metric:(Option.value r.attrs.med ~default:0) ()
              with
              | Ok () -> ()
              | Error e -> failwith e)
           method delete_route (r : Bgp_types.route) =
             ignore (Rib.delete_route rib ~protocol:(proto_of r) ~net:r.net)
         end
       in
       decision#set_next (Some (rib_branch :> Bgp_table.table));
       (* sharded side: one engine per range plus the delta mirrors an
          applier would maintain *)
       let engines =
         Array.init shards (fun shard -> Shard.Engine.create ~shard ~shards)
       in
       let bgp_mirror = Hashtbl.create 64 in
       let rib_mirror = Hashtbl.create 64 in
       let owner n = engines.(Ptree.shard_of ~shards n) in
       (* emit_bgp re-enacts the real wiring: the winner delta lands in
          the process mirror, whose fanout diff (delete old, add new)
          crosses the RIB's XRL boundary and is dispatched back to the
          owner engine as an ebgp/ibgp origin operation *)
       let rec emit =
         { Shard.Engine.emit_bgp =
             (fun n w ->
                let old = Hashtbl.find_opt bgp_mirror n in
                (match w with
                 | Some r -> Hashtbl.replace bgp_mirror n r
                 | None -> Hashtbl.remove bgp_mirror n);
                (match old with
                 | Some (o : Bgp_types.route) when o.peer_id <> 0 ->
                   Shard.Engine.apply_rib (owner n) ~emit
                     (Rib.Shard_delete { protocol = proto_of o; net = n })
                 | _ -> ());
                match w with
                | Some (r : Bgp_types.route) when r.peer_id <> 0 ->
                  Shard.Engine.apply_rib (owner n) ~emit
                    (Rib.Shard_add
                       (Rib_route.make ~net:n ~nexthop:r.attrs.nexthop
                          ~metric:(Option.value r.attrs.med ~default:0)
                          ~protocol:(proto_of r) ()))
                | _ -> ());
           emit_rib =
             (fun n w ->
                match w with
                | Some r -> Hashtbl.replace rib_mirror n r
                | None -> Hashtbl.remove rib_mirror n) }
       in
       let bgp_to_owner (op : Bgp_decision.shard_op) n =
         Shard.Engine.apply_bgp (owner n) ~emit op
       in
       let rib_broadcast op =
         Array.iter (fun e -> Shard.Engine.apply_rib e ~emit op) engines
       in
       List.iter
         (fun info ->
            Array.iter
              (fun e ->
                 Shard.Engine.apply_bgp e ~emit
                   (Bgp_decision.Shard_peer info))
              engines)
         peer_infos;
       (* drive both sides with the same accepted operations *)
       List.iter
         (fun op ->
            match op with
            | GBgpAdd (p, n, nh, med, lp, igp) ->
              let r = make_bgp_route ~peer:p ~neti:n ~nhi:nh ~med ~lp ~igp in
              let branch = List.assoc r.peer_id branches in
              branch#add_route r;
              decision#add_route r;
              bgp_to_owner (Bgp_decision.Shard_add r) r.net
            | GBgpDel (p, n) ->
              let info = List.nth peer_infos p in
              let branch = List.assoc info.Bgp_types.peer_id branches in
              (match branch#lookup_route bgp_nets.(n) with
               | None -> () (* nothing to withdraw on either side *)
               | Some r ->
                 branch#delete_route r;
                 decision#delete_route r;
                 bgp_to_owner (Bgp_decision.Shard_delete r) r.net)
            | GIntAdd (p, n, nh, metric) ->
              let protocol = internal_protocols.(p) in
              (match
                 Rib.add_route rib ~protocol ~net:int_nets.(n)
                   ~nexthop:nexthops.(nh) ~metric ()
               with
               | Error e -> failwith e
               | Ok () ->
                 rib_broadcast
                   (Rib.Shard_add
                      (Rib_route.make ~net:int_nets.(n)
                         ~nexthop:nexthops.(nh) ~metric ~protocol ())))
            | GIntDel (p, n) ->
              let protocol = internal_protocols.(p) in
              (match Rib.delete_route rib ~protocol ~net:int_nets.(n) with
               | Error _ -> () (* absent: skipped on both sides *)
               | Ok () ->
                 rib_broadcast
                   (Rib.Shard_delete { protocol; net = int_nets.(n) }))
            | GExtAdd (ibgp, n, nh) ->
              let protocol = if ibgp then "ibgp" else "ebgp" in
              (match
                 Rib.add_route rib ~protocol ~net:ext_nets.(n)
                   ~nexthop:nexthops.(nh) ()
               with
               | Error e -> failwith e
               | Ok () ->
                 let r =
                   Rib_route.make ~net:ext_nets.(n) ~nexthop:nexthops.(nh)
                     ~protocol ()
                 in
                 Shard.Engine.apply_rib (owner r.Rib_route.net) ~emit
                   (Rib.Shard_add r))
            | GExtDel (ibgp, n) ->
              let protocol = if ibgp then "ibgp" else "ebgp" in
              (match Rib.delete_route rib ~protocol ~net:ext_nets.(n) with
               | Error _ -> ()
               | Ok () ->
                 Shard.Engine.apply_rib
                   (owner ext_nets.(n))
                   ~emit
                   (Rib.Shard_delete { protocol; net = ext_nets.(n) })))
         ops;
       Eventloop.run_until_idle loop;
       (* the union of per-shard winners — and the mirror rebuilt from
          the delta stream — must both equal the single-domain result *)
       let ref_bgp = Hashtbl.create 64 in
       decision#fold_winners
         (fun r () -> Hashtbl.replace ref_bgp r.Bgp_types.net r)
         ();
       let ref_rib = Hashtbl.create 64 in
       Rib.fold_winners rib
         (fun r () -> Hashtbl.replace ref_rib r.Rib_route.net r)
         ();
       let same_tbl equal a b =
         Hashtbl.length a = Hashtbl.length b
         && Hashtbl.fold
           (fun k v acc ->
              acc
              && match Hashtbl.find_opt b k with
              | Some v' -> equal v v'
              | None -> false)
           a true
       in
       let engines_bgp = Hashtbl.create 64 in
       let engines_rib = Hashtbl.create 64 in
       Hashtbl.iter
         (fun n _ ->
            match Shard.Engine.bgp_winner (owner n) n with
            | Some r -> Hashtbl.replace engines_bgp n r
            | None -> ())
         ref_bgp;
       (* also collect engine winners the reference does not have, to
          catch extras: walk the mirrors, which are rebuilt purely from
          emitted deltas *)
       Hashtbl.iter
         (fun n r ->
            match Shard.Engine.bgp_winner (owner n) n with
            | Some r' when Bgp_types.route_equal r r' -> ()
            | _ -> Hashtbl.replace engines_bgp n r)
         bgp_mirror;
       Hashtbl.iter
         (fun n _ ->
            match Shard.Engine.rib_winner (owner n) n with
            | Some r -> Hashtbl.replace engines_rib n r
            | None -> ())
         ref_rib;
       Hashtbl.iter
         (fun n r ->
            match Shard.Engine.rib_winner (owner n) n with
            | Some r' when Rib_route.equal r r' -> ()
            | _ -> Hashtbl.replace engines_rib n r)
         rib_mirror;
       let bgp_count =
         Array.fold_left
           (fun acc e -> acc + Shard.Engine.bgp_winner_count e)
           0 engines
       in
       let rib_count =
         Array.fold_left
           (fun acc e -> acc + Shard.Engine.rib_winner_count e)
           0 engines
       in
       Rib.shutdown rib;
       same_tbl Bgp_types.route_equal ref_bgp engines_bgp
       && same_tbl Bgp_types.route_equal ref_bgp bgp_mirror
       && same_tbl Rib_route.equal ref_rib engines_rib
       && same_tbl Rib_route.equal ref_rib rib_mirror
       && bgp_count = Hashtbl.length ref_bgp
       && rib_count = Hashtbl.length ref_rib)

(* --- engine reset: stale candidates do not survive a BGP rebirth ------ *)

let test_engine_reset_bgp () =
  let eng = Shard.Engine.create ~shard:0 ~shards:1 in
  let deltas = ref 0 in
  let emit =
    { Shard.Engine.emit_bgp = (fun _ _ -> incr deltas);
      emit_rib = (fun _ _ -> ()) }
  in
  let attach_all () =
    List.iter
      (fun info ->
         Shard.Engine.apply_bgp eng ~emit (Bgp_decision.Shard_peer info))
      peer_infos
  in
  attach_all ();
  let r0 = make_bgp_route ~peer:0 ~neti:0 ~nhi:0 ~med:1 ~lp:100 ~igp:5 in
  let r1 = make_bgp_route ~peer:1 ~neti:1 ~nhi:0 ~med:1 ~lp:100 ~igp:5 in
  Shard.Engine.apply_bgp eng ~emit (Bgp_decision.Shard_add r0);
  Shard.Engine.apply_bgp eng ~emit (Bgp_decision.Shard_add r1);
  check Alcotest.int "two winners before reset" 2
    (Shard.Engine.bgp_winner_count eng);
  let before = !deltas in
  Shard.Engine.reset_bgp eng;
  check Alcotest.int "reset emits no deltas" before !deltas;
  check Alcotest.int "no winners after reset" 0
    (Shard.Engine.bgp_winner_count eng);
  (* the reborn process's peers resend their sessions; a route withdrawn
     while BGP was dead (r1) is simply never re-fed, so it must not
     reappear as a stale candidate *)
  attach_all ();
  Shard.Engine.apply_bgp eng ~emit (Bgp_decision.Shard_add r0);
  check Alcotest.int "only re-fed routes win" 1
    (Shard.Engine.bgp_winner_count eng);
  check Alcotest.bool "stale candidate gone" true
    (Option.is_none (Shard.Engine.bgp_winner eng r1.Bgp_types.net))

(* --- live pool: multi-domain RIB vs single-domain RIB ----------------- *)

let test_pool_rib_equivalence () =
  let loop_s = Eventloop.create () in
  let finder_s = Finder.create () in
  let pool = Shard.create ~shards:4 loop_s () in
  let rib_s =
    Rib.create ~send_to_fea:false
      ~shard_dispatch:(Shard.rib_dispatch pool)
      finder_s loop_s ()
  in
  Shard.connect_rib pool rib_s;
  let loop_r = Eventloop.create () in
  let finder_r = Finder.create () in
  let rib_r = Rib.create ~send_to_fea:false finder_r loop_r () in
  let protocols =
    [| "connected"; "static"; "ospf"; "rip"; "ebgp"; "ibgp" |]
  in
  let rng = Random.State.make [| Seeded.seed; 77 |] in
  for i = 0 to 1499 do
    let protocol = protocols.(Random.State.int rng (Array.length protocols)) in
    let n =
      Ipv4net.make
        (Ipv4.of_octets (Random.State.int rng 256) (i mod 50) 0 0)
        16
    in
    let nh = nexthops.(Random.State.int rng (Array.length nexthops)) in
    if Random.State.int rng 4 = 0 then begin
      let a = Rib.delete_route rib_s ~protocol ~net:n in
      let b = Rib.delete_route rib_r ~protocol ~net:n in
      check Alcotest.bool "delete outcomes agree"
        (Result.is_ok a) (Result.is_ok b)
    end
    else begin
      let metric = Random.State.int rng 10 in
      (match Rib.add_route rib_s ~protocol ~net:n ~nexthop:nh ~metric () with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      match Rib.add_route rib_r ~protocol ~net:n ~nexthop:nh ~metric () with
      | Ok () -> ()
      | Error e -> Alcotest.fail e
    end
  done;
  Shard.quiesce pool;
  Eventloop.run_until_idle loop_s;
  Eventloop.run_until_idle loop_r;
  check Alcotest.int "in-flight backlog drained" 0 (Shard.backlog pool);
  let winners rib =
    Rib.fold_winners rib (fun r acc -> (r.Rib_route.net, r) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> Ipv4net.compare a b)
  in
  let ws = winners rib_s and wr = winners rib_r in
  check Alcotest.int "same winner count" (List.length wr) (List.length ws);
  List.iter2
    (fun (ns, rs) (nr, rr) ->
       if not (Ipv4net.equal ns nr && Rib_route.equal rs rr) then
         Alcotest.failf "winner mismatch at %s vs %s"
           (Ipv4net.to_string ns) (Ipv4net.to_string nr))
    ws wr;
  (* a replay re-emits every winner; appliers diff, so nothing changes *)
  let before = Rib.route_count rib_s in
  Shard.replay pool;
  Shard.quiesce pool;
  Eventloop.run_until_idle loop_s;
  check Alcotest.int "replay is idempotent" before (Rib.route_count rib_s);
  check Alcotest.int "per-protocol counts preserved"
    (List.fold_left
       (fun acc p -> acc + Rib.origin_route_count rib_r p)
       0 (Rib.protocols rib_r))
    (List.fold_left
       (fun acc p -> acc + Rib.origin_route_count rib_s p)
       0 (Rib.protocols rib_s));
  Shard.shutdown pool;
  Rib.shutdown rib_s;
  Rib.shutdown rib_r

let test_pool_worker_failure_reported () =
  let loop = Eventloop.create () in
  let pool = Shard.create ~shards:2 loop () in
  (* An engine-level invariant violation on a worker domain must not
     vanish: the next quiesce reports it. A delete for a peer the
     engine never saw is harmless, so provoke a crash differently — via
     an op whose processing raises. Shard_peer with absurd data cannot
     raise, so use the one op that can: none today. Instead check the
     healthy path: quiesce on an idle pool completes. *)
  Shard.quiesce pool;
  check Alcotest.int "idle pool has no backlog" 0 (Shard.backlog pool);
  Shard.shutdown pool;
  (* shutdown is idempotent and dispatches after it are dropped *)
  Shard.shutdown pool;
  Shard.rib_dispatch pool ~lane:Laneq.Urgent
    (Rib.Shard_add
       (Rib_route.make ~net:(net "10.0.0.0/8") ~nexthop:(addr "10.0.0.1")
          ~protocol:"static" ()));
  check Alcotest.int "post-shutdown dispatch dropped" 0 (Shard.backlog pool)

let () =
  Alcotest.run "xorp_shard"
    [
      ( "ptree_shard",
        [ Alcotest.test_case "shard_bits" `Quick test_shard_bits;
          Alcotest.test_case "shard_of" `Quick test_shard_of;
          Alcotest.test_case "split_points" `Quick test_split_points;
          Alcotest.test_case "partition_merge" `Quick test_partition_merge ] );
      ( "mailbox",
        [ Alcotest.test_case "lanes" `Quick test_mailbox_lanes;
          Alcotest.test_case "demotion" `Quick test_mailbox_demotion;
          Alcotest.test_case "broadcast fence" `Quick test_mailbox_fence;
          Alcotest.test_case "bulk_slice" `Quick test_mailbox_bulk_slice;
          Alcotest.test_case "wakeup" `Quick test_mailbox_wakeup;
          Alcotest.test_case "close" `Quick test_mailbox_close;
          Alcotest.test_case "timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "cross_domain" `Quick test_mailbox_cross_domain ]
      );
      ( "eventloop_post",
        [ Alcotest.test_case "sim" `Quick test_post_sim;
          Alcotest.test_case "real_wakeup" `Quick test_post_real_wakeup;
          Alcotest.test_case "fifo" `Quick test_post_fifo ] );
      ( "equivalence",
        Alcotest.test_case "reset_bgp" `Quick test_engine_reset_bgp
        :: List.map Seeded.qcheck [ prop_engine_matches_single_domain ] );
      ( "pool",
        [ Alcotest.test_case "rib_equivalence" `Quick
            test_pool_rib_equivalence;
          Alcotest.test_case "lifecycle" `Quick
            test_pool_worker_failure_reported ] );
    ]
