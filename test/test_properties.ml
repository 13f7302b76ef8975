(* Cross-cutting property-based tests: the BGP decision ladder is a
   strict order, damping decay is monotone, the whole staged RIB agrees
   with a flat reference model under random churn, and the fanout queue
   preserves per-reader order and filtering under random traffic. *)

let addr = Ipv4.of_string_exn

(* --- BGP decision ladder ------------------------------------------------ *)

let gen_route_info =
  QCheck.Gen.(
    let* peer_id = int_range 1 5 in
    let* lp = int_range 90 110 in
    let* plen = int_range 1 4 in
    let* path = list_repeat plen (int_range 1 9) in
    let* origin = oneofl [ Bgp_types.IGP; Bgp_types.EGP; Bgp_types.INCOMPLETE ] in
    let* med = int_range 0 3 in
    let* kind = oneofl [ Bgp_types.Ebgp; Bgp_types.Ibgp ] in
    let* igp = int_range 0 3 in
    let* netoct = int_range 1 200 in
    let info =
      { Bgp_types.peer_id;
        peer_addr = Ipv4.of_octets 10 0 0 peer_id;
        peer_as = 65000 + peer_id;
        kind;
        peer_bgp_id = Ipv4.of_octets peer_id peer_id peer_id peer_id }
    in
    let route =
      { Bgp_types.net = Ipv4net.make (Ipv4.of_octets netoct 0 0 0) 16;
        attrs =
          { (Bgp_types.default_attrs ~nexthop:(Ipv4.of_octets 10 9 0 peer_id)) with
            Bgp_types.aspath = [ Aspath.Seq path ];
            localpref = Some lp;
            med = Some med;
            origin };
        peer_id;
        igp_metric = Some igp }
    in
    return (route, info))

let arb_route_info = QCheck.make gen_route_info

let prop_decision_irreflexive =
  QCheck.Test.make ~name:"decision: nothing beats itself" ~count:500
    arb_route_info (fun (r, i) -> not (Bgp_decision.better r i r i))

let prop_decision_asymmetric =
  QCheck.Test.make ~name:"decision: asymmetry" ~count:500
    (QCheck.pair arb_route_info arb_route_info)
    (fun ((a, ia), (b, ib)) ->
       not (Bgp_decision.better a ia b ib && Bgp_decision.better b ib a ia))

let prop_decision_transitive =
  QCheck.Test.make ~name:"decision: transitivity" ~count:500
    (QCheck.triple arb_route_info arb_route_info arb_route_info)
    (fun ((a, ia), (b, ib), (c, ic)) ->
       if Bgp_decision.better a ia b ib && Bgp_decision.better b ib c ic then
         Bgp_decision.better a ia c ic
       else true)

let prop_decision_total_across_peers =
  (* Two routes from different peer addresses are always strictly
     ordered one way or the other: no silent ties that would make the
     decision unstable. *)
  QCheck.Test.make ~name:"decision: totality across distinct peers" ~count:500
    (QCheck.pair arb_route_info arb_route_info)
    (fun ((a, ia), (b, ib)) ->
       if Ipv4.equal ia.Bgp_types.peer_addr ib.Bgp_types.peer_addr then true
       else Bgp_decision.better a ia b ib || Bgp_decision.better b ib a ia)

(* --- damping decay -------------------------------------------------------- *)

let prop_damping_decay_monotone =
  QCheck.Test.make ~name:"damping: penalty decays monotonically" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 1 600))
    (fun (flaps, dt) ->
       let loop = Eventloop.create () in
       let ribin = new Bgp_ribin.rib_in ~name:"in" ~peer_id:1 loop in
       let damp =
         new Bgp_damping.damping_table ~name:"d"
           ~parent:(ribin :> Bgp_table.table)
           loop
       in
       Bgp_table.plumb ribin damp;
       let net = Ipv4net.make (Ipv4.of_octets 10 0 0 0) 8 in
       let route =
         { Bgp_types.net;
           attrs = Bgp_types.default_attrs ~nexthop:(addr "10.0.0.1");
           peer_id = 1; igp_metric = None }
       in
       for _ = 1 to flaps do
         ribin#add_route route;
         ribin#delete_route route
       done;
       match damp#penalty_of net with
       | None -> flaps = 0
       | Some p0 ->
         Eventloop.run_until_time loop (Eventloop.now loop +. float_of_int dt);
         (match damp#penalty_of net with
          | None -> true (* forgiven entirely *)
          | Some p1 -> p1 <= p0 +. 1e-9))

(* --- staged RIB vs flat model ---------------------------------------------- *)

type model_op = M_add of string * int * int | M_del of string * int
(* protocol index, /16 third octet for prefix variety, op *)

let protocols = [| "connected"; "static"; "ospf"; "rip" |]

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (let* proto = int_range 0 3 in
       let* oct = int_range 0 7 in
       let* len = oneofl [ 8; 16; 24 ] in
       let* is_add = bool in
       return
         (if is_add then M_add (protocols.(proto), oct, len)
          else M_del (protocols.(proto), oct))))

let arb_ops =
  QCheck.make gen_ops
    ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | M_add (p, o, l) -> Printf.sprintf "+%s/10.%d/%d" p o l
               | M_del (p, o) -> Printf.sprintf "-%s/10.%d" p o)
             ops))

let prop_rib_matches_flat_model =
  QCheck.Test.make ~name:"staged RIB agrees with a flat model" ~count:100
    arb_ops (fun ops ->
        let loop = Eventloop.create () in
        let finder = Finder.create () in
        let rib = Rib.create finder loop () in
        (* Flat model: (protocol, net) -> route. *)
        let model : (string * Ipv4net.t, Rib_route.t) Hashtbl.t =
          Hashtbl.create 64
        in
        let net_of oct len = Ipv4net.make (Ipv4.of_octets 10 oct 0 0) len in
        List.iteri
          (fun i op ->
             match op with
             | M_add (proto, oct, len) ->
               let n = net_of oct len in
               ignore
                 (Rib.add_route rib ~protocol:proto ~net:n
                    ~nexthop:(Ipv4.of_octets 192 0 2 (1 + (i mod 200))) ());
               Hashtbl.replace model (proto, n)
                 (Rib_route.make ~net:n
                    ~nexthop:(Ipv4.of_octets 192 0 2 (1 + (i mod 200)))
                    ~protocol:proto ())
             | M_del (proto, oct) ->
               (* delete whichever lengths exist for this prefix family *)
               List.iter
                 (fun len ->
                    let n = net_of oct len in
                    if Hashtbl.mem model (proto, n) then begin
                      ignore (Rib.delete_route rib ~protocol:proto ~net:n);
                      Hashtbl.remove model (proto, n)
                    end)
                 [ 8; 16; 24 ])
          ops;
        Eventloop.run_until_idle loop;
        (* Reference lookup: longest prefix, then lowest admin
           distance. *)
        let reference a =
          Hashtbl.fold
            (fun (_, n) r best ->
               if Ipv4net.contains_addr n a then
                 match best with
                 | None -> Some r
                 | Some b ->
                   let ln = Ipv4net.prefix_len n
                   and lb = Ipv4net.prefix_len b.Rib_route.net in
                   if ln > lb then Some r
                   else if ln = lb
                           && r.Rib_route.admin_distance < b.Rib_route.admin_distance
                   then Some r
                   else best
               else best)
            model None
        in
        (* Probe a grid of addresses. *)
        List.for_all
          (fun oct ->
             let probe = Ipv4.of_octets 10 oct 1 1 in
             match Rib.lookup_best rib probe, reference probe with
             | None, None -> true
             | Some got, Some want ->
               Ipv4net.equal got.Rib_route.net want.Rib_route.net
               && got.Rib_route.admin_distance = want.Rib_route.admin_distance
             | Some _, None | None, Some _ -> false)
          [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* --- staged decision + RIB vs flat model ---------------------------------- *)

(* The real decision table runs over stub peer branches, and its winner
   stream feeds the real RIB exactly as Bgp_process's RIB branch would,
   so random BGP churn reaches the RIB's merge and extint stages. Universe:
   BGP-fed prefixes, internal prefixes covering some nexthops but not
   others (so the extint gate opens and closes), and prefixes added
   straight to the RIB's ebgp/ibgp origins, one of them also internal
   (so internal and external compete for a prefix). *)

let bgp_nets =
  Array.map Ipv4net.of_string_exn
    [| "8.1.0.0/16"; "32.6.0.0/16"; "64.2.0.0/16"; "128.3.0.0/16";
       "160.7.0.0/16"; "200.4.0.0/16"; "250.5.0.0/16"; "8.1.128.0/17" |]

let int_nets =
  Array.map Ipv4net.of_string_exn
    [| "10.0.0.0/8"; "192.0.0.0/8"; "7.0.0.0/8"; "10.9.0.0/16" |]

let ext_nets =
  Array.map Ipv4net.of_string_exn
    [| "77.1.0.0/16"; "78.2.0.0/16"; "79.3.0.0/16"; "10.9.0.0/16" |]

let nexthops =
  Array.map addr [| "10.9.0.1"; "192.168.0.1"; "7.7.7.7"; "99.9.9.9" |]

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

let gen_gop =
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

let egp_protocol (r : Bgp_types.route) =
  match
    (List.find (fun i -> i.Bgp_types.peer_id = r.peer_id) peer_infos).kind
  with
  | Bgp_types.Ibgp -> "ibgp"
  | Bgp_types.Ebgp -> "ebgp"

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

(* The flat model, per prefix. BGP: the best attached candidate, with
   the highest local-pref first and [Bgp_decision.better] ranking the
   rest; local-pref is restated here so that a ladder that lost it
   cannot agree with itself. RIB: the internal winner has the lowest
   admin distance (protocol name breaks ties); the external pick is the
   lowest-distance ebgp/ibgp candidate, usable only while its nexthop
   longest-matches an internal winner; internal wins distance ties. *)
let model_bgp_winner cands =
  let beats (a, ia) (b, ib) =
    let lp (r : Bgp_types.route) = Bgp_types.effective_localpref r.attrs in
    lp a > lp b || (lp a = lp b && Bgp_decision.better a ia b ib)
  in
  List.fold_left
    (fun best c ->
       match best with
       | Some b when not (beats c b) -> best
       | _ -> Some c)
    None cands
  |> Option.map fst

let lowest_distance routes =
  List.fold_left
    (fun best (r : Rib_route.t) ->
       match best with
       | Some (b : Rib_route.t)
         when (b.admin_distance, b.protocol) <= (r.admin_distance, r.protocol)
         -> best
       | _ -> Some r)
    None routes

let model_rib_winners ~internal ~external_ =
  let nets tbl = Hashtbl.fold (fun (_, n) _ acc -> n :: acc) tbl [] in
  let at tbl net =
    Hashtbl.fold
      (fun (_, n) r acc -> if Ipv4net.equal n net then r :: acc else acc)
      tbl []
  in
  let int_winner net = lowest_distance (at internal net) in
  let resolves nh =
    List.exists
      (fun n -> Ipv4net.contains_addr n nh && int_winner n <> None)
      (nets internal)
  in
  let winner net =
    let ext =
      match lowest_distance (at external_ net) with
      | Some e when resolves e.Rib_route.nexthop -> Some e
      | _ -> None
    in
    match (int_winner net, ext) with
    | Some i, Some e ->
      Some (if i.admin_distance <= e.admin_distance then i else e)
    | (Some _ as w), None | None, (Some _ as w) -> w
    | None, None -> None
  in
  List.sort_uniq Ipv4net.compare (nets internal @ nets external_)
  |> List.filter_map winner

let prop_decision_rib_match_flat_model =
  QCheck.Test.make ~name:"staged decision + RIB agree with a flat model"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 60 200) gen_gop))
    (fun ops ->
       let loop = Eventloop.create () in
       let finder = Finder.create () in
       let rib = Rib.create finder loop () in
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
       let rib_branch =
         object (self)
           method tbl_name = "rib-branch"
           method set_next (_ : Bgp_table.table option) = ()
           method lookup_route (_ : Ipv4net.t) : Bgp_types.route option =
             None
           method add_route (r : Bgp_types.route) =
             match
               Rib.add_route rib ~protocol:(egp_protocol r) ~net:r.net
                 ~nexthop:r.attrs.nexthop
                 ~metric:(Option.value r.attrs.med ~default:0) ()
             with
             | Ok () -> ()
             | Error e -> failwith e
           method delete_route (r : Bgp_types.route) =
             ignore
               (Rib.delete_route rib ~protocol:(egp_protocol r) ~net:r.net)
           method replace_route old r =
             self#delete_route old;
             self#add_route r
         end
       in
       decision#set_next (Some (rib_branch :> Bgp_table.table));
       (* Model state: BGP candidates by (peer, net), and the RIB's
          internal and directly-added external routes by
          (protocol, net). *)
       let bgp = Hashtbl.create 64 in
       let internal = Hashtbl.create 64 in
       let direct_ext = Hashtbl.create 64 in
       List.iter
         (fun op ->
            match op with
            | GBgpAdd (p, n, nh, med, lp, igp) ->
              let r = make_bgp_route ~peer:p ~neti:n ~nhi:nh ~med ~lp ~igp in
              (List.assoc r.peer_id branches)#add_route r;
              decision#add_route r;
              Hashtbl.replace bgp (p, r.net) r
            | GBgpDel (p, n) ->
              let info = List.nth peer_infos p in
              let branch = List.assoc info.Bgp_types.peer_id branches in
              Option.iter
                (fun r ->
                   branch#delete_route r;
                   decision#delete_route r;
                   Hashtbl.remove bgp (p, r.Bgp_types.net))
                (branch#lookup_route bgp_nets.(n))
            | GIntAdd (p, n, nh, metric) ->
              let protocol = protocols.(p) and net = int_nets.(n) in
              Result.get_ok
                (Rib.add_route rib ~protocol ~net ~nexthop:nexthops.(nh)
                   ~metric ());
              Hashtbl.replace internal (protocol, net)
                (Rib_route.make ~net ~nexthop:nexthops.(nh) ~metric ~protocol
                   ())
            | GIntDel (p, n) ->
              let protocol = protocols.(p) and net = int_nets.(n) in
              if Result.is_ok (Rib.delete_route rib ~protocol ~net) then
                Hashtbl.remove internal (protocol, net)
            | GExtAdd (ibgp, n, nh) ->
              let protocol = if ibgp then "ibgp" else "ebgp"
              and net = ext_nets.(n) in
              Result.get_ok
                (Rib.add_route rib ~protocol ~net ~nexthop:nexthops.(nh) ());
              Hashtbl.replace direct_ext (protocol, net)
                (Rib_route.make ~net ~nexthop:nexthops.(nh) ~protocol ())
            | GExtDel (ibgp, n) ->
              let protocol = if ibgp then "ibgp" else "ebgp"
              and net = ext_nets.(n) in
              if Result.is_ok (Rib.delete_route rib ~protocol ~net) then
                Hashtbl.remove direct_ext (protocol, net))
         ops;
       Eventloop.run_until_idle loop;
       let want_bgp =
         Array.to_list bgp_nets
         |> List.filter_map (fun net ->
             List.filter_map
               (fun (p, info) ->
                  Option.map (fun r -> (r, info))
                    (Hashtbl.find_opt bgp (p, net)))
               (List.mapi (fun p info -> (p, info)) peer_infos)
             |> model_bgp_winner)
       in
       let external_ = Hashtbl.copy direct_ext in
       List.iter
         (fun (r : Bgp_types.route) ->
            let protocol = egp_protocol r in
            Hashtbl.replace external_ (protocol, r.net)
              (Rib_route.make ~net:r.net ~nexthop:r.attrs.nexthop
                 ~metric:(Option.value r.attrs.med ~default:0) ~protocol ()))
         want_bgp;
       let want_rib = model_rib_winners ~internal ~external_ in
       let by_net net l = List.sort (fun a b -> Ipv4net.compare (net a) (net b)) l in
       let bgp_net (r : Bgp_types.route) = r.net
       and rib_net (r : Rib_route.t) = r.net in
       let got_bgp = decision#fold_winners List.cons [] in
       let got_rib = Rib.fold_winners rib List.cons [] in
       Rib.shutdown rib;
       List.equal Bgp_types.route_equal (by_net bgp_net want_bgp)
         (by_net bgp_net got_bgp)
       && List.equal Rib_route.equal (by_net rib_net want_rib)
            (by_net rib_net got_rib))

(* --- fanout ordering --------------------------------------------------------- *)

let prop_fanout_order_and_filtering =
  QCheck.Test.make ~name:"fanout: per-reader order and no echo" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (pair (int_range 1 3) (int_range 0 50)))
    (fun stream ->
       let loop = Eventloop.create () in
       let infos = Hashtbl.create 4 in
       let fanout =
         new Bgp_fanout.fanout_table ~name:"f" ~batch:7
           ~peer_info_of:(fun id -> Hashtbl.find_opt infos id)
           loop
       in
       let seen : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 4 in
       List.iter
         (fun id ->
            let info =
              { Bgp_types.peer_id = id;
                peer_addr = Ipv4.of_octets 10 0 0 id;
                peer_as = 65000 + id; kind = Bgp_types.Ebgp;
                peer_bgp_id = Ipv4.of_octets id id id id }
            in
            Hashtbl.replace infos id info;
            let log = ref [] in
            Hashtbl.replace seen id log;
            let parent =
              (new Bgp_ribin.rib_in ~name:"null" ~peer_id:99 loop
                :> Bgp_table.table)
            in
            let sink =
              new Bgp_table.sink ~name:"s" ~parent
                ~on_add:(fun r ->
                    log :=
                      ( r.Bgp_types.peer_id,
                        Ipv4.to_int (Ipv4net.network r.Bgp_types.net) )
                      :: !log)
                ~on_delete:(fun _ -> ())
            in
            fanout#add_reader ~info (sink :> Bgp_table.table))
         [ 1; 2; 3 ];
       List.iter
         (fun (from_peer, tag) ->
            fanout#add_route
              { Bgp_types.net = Ipv4net.make (Ipv4.of_octets 10 1 tag 0) 24;
                attrs = Bgp_types.default_attrs ~nexthop:(addr "10.0.0.9");
                peer_id = from_peer; igp_metric = Some 0 })
         stream;
       Eventloop.run loop;
       (* Each reader must have received exactly the stream minus its
          own contributions, in order. *)
       List.for_all
         (fun id ->
            let expect =
              List.filter_map
                (fun (from_peer, tag) ->
                   if from_peer = id then None
                   else
                     Some
                       ( from_peer,
                         Ipv4.to_int
                           (Ipv4net.network (Ipv4net.make (Ipv4.of_octets 10 1 tag 0) 24)) ))
                stream
            in
            List.rev !(Hashtbl.find seen id) = expect)
         [ 1; 2; 3 ])

(* --- priority lanes -------------------------------------------------------- *)

(* The Laneq contract: however pushes and drain turns interleave, and
   whichever lane each push rides, consumption order per prefix is push
   order (the §5.1.2 guard demotes an urgent push whose prefix still
   has bulk work pending). A turn is the consumer contract in code:
   urgent drained dry, then a bounded bulk batch. *)
type laneq_op = L_push of int * bool (* net index, is_bulk *) | L_turn

let gen_laneq_ops =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (let* is_turn = frequency [ (3, return false); (1, return true) ] in
       if is_turn then return L_turn
       else
         let* net = int_range 0 3 in
         let* bulk = bool in
         return (L_push (net, bulk))))

let arb_laneq_ops =
  QCheck.make gen_laneq_ops
    ~print:(fun ops ->
        String.concat ""
          (List.map
             (function
               | L_push (n, b) -> Printf.sprintf "%c%d" (if b then 'b' else 'u') n
               | L_turn -> "|")
             ops))

let prop_laneq_per_prefix_fifo =
  QCheck.Test.make ~name:"laneq: per-prefix FIFO across lanes" ~count:300
    arb_laneq_ops (fun ops ->
        let q : (int * int) Laneq.t = Laneq.create () in
        let nets =
          Array.init 4 (fun i -> Ipv4net.make (Ipv4.of_octets 10 i 0 0) 16)
        in
        let seq = ref 0 in
        let drained : (int, int list ref) Hashtbl.t = Hashtbl.create 4 in
        let note net v =
          let l =
            match Hashtbl.find_opt drained net with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace drained net l;
              l
          in
          l := v :: !l
        in
        let turn () =
          let urgent, bulk = Laneq.drain q ~bulk_slice:3 in
          List.iter (fun (i, v) -> note i v) urgent;
          List.iter (fun (i, v) -> note i v) bulk
        in
        List.iter
          (function
            | L_push (i, bulk) ->
              incr seq;
              Laneq.push q
                (if bulk then Laneq.Bulk else Laneq.Urgent)
                ~net:nets.(i) (i, !seq)
            | L_turn -> turn ())
          ops;
        while not (Laneq.is_empty q) do turn () done;
        Hashtbl.fold
          (fun _ l ok ->
             let order = List.rev !l in
             ok && List.sort compare order = order)
          drained true)

(* Sliced inbound staging must be invisible at the routing level: the
   same announce/withdraw script, played into one receiver that stages
   and drains every UPDATE in 2-op background slices (all bulk lane)
   and into one that processes every UPDATE synchronously (all
   urgent), must end with identical winner tables. *)
type inbound_op = I_ann of int | I_wdr of int | I_settle

let gen_inbound_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (let* k = int_range 0 9 in
       let* net = int_range 0 11 in
       return
         (if k = 0 then I_settle else if k <= 6 then I_ann net else I_wdr net)))

let arb_inbound_ops =
  QCheck.make gen_inbound_ops
    ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | I_ann n -> Printf.sprintf "+%d" n
               | I_wdr n -> Printf.sprintf "-%d" n
               | I_settle -> "~")
             ops))

let prop_sliced_inbound_equivalence =
  QCheck.Test.make ~name:"sliced inbound agrees with synchronous" ~count:25
    arb_inbound_ops (fun ops ->
        let world ~sliced =
          let loop = Eventloop.create () in
          let netsim = Netsim.create loop in
          let finder = Finder.create () in
          let mk ?inbound_slice ?urgent_threshold ~local_as ~bgp_id () =
            Bgp_process.create ~nexthop_mode:`Assume_resolvable ?inbound_slice
              ?urgent_threshold finder loop ~netsim ~local_as ~bgp_id ()
          in
          let a = mk ~local_as:65001 ~bgp_id:(addr "1.1.1.1") () in
          let b =
            if sliced then
              (* Tiny slices, threshold 1: every UPDATE staged, every
                 drained op rides the bulk lane. *)
              mk ~inbound_slice:2 ~urgent_threshold:1 ~local_as:65002
                ~bgp_id:(addr "2.2.2.2") ()
            else
              (* Threshold too high to ever stage: the synchronous
                 reference pipeline. *)
              mk ~urgent_threshold:1_000_000 ~local_as:65002
                ~bgp_id:(addr "2.2.2.2") ()
          in
          Bgp_process.add_peer a
            (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.2")
               ~local_addr:(addr "10.0.0.1") ~peer_as:65002);
          Bgp_process.add_peer b
            (Bgp_process.default_peer_config ~peer_addr:(addr "10.0.0.1")
               ~local_addr:(addr "10.0.0.2") ~peer_as:65001);
          Bgp_process.start a;
          Bgp_process.start b;
          Eventloop.run_until_time loop (Eventloop.now loop +. 2.0);
          let test_net i = Ipv4net.make (Ipv4.of_octets 10 100 i 0) 24 in
          List.iter
            (function
              | I_ann i -> Bgp_process.originate a (test_net i)
              | I_wdr i -> Bgp_process.withdraw a (test_net i)
              | I_settle ->
                Eventloop.run_until_time loop (Eventloop.now loop +. 0.2))
            ops;
          Eventloop.run_until_time loop (Eventloop.now loop +. 5.0);
          Eventloop.run_until_idle loop;
          let winners =
            Bgp_process.fold_winners b
              (fun r acc ->
                 (Ipv4net.to_string r.Bgp_types.net, r.Bgp_types.attrs) :: acc)
              []
          in
          (Bgp_process.inbound_backlog b, winners)
        in
        let backlog_sliced, sliced = world ~sliced:true in
        let _, sync = world ~sliced:false in
        backlog_sliced = 0
        && List.length sliced = List.length sync
        && List.for_all2
          (fun (n1, a1) (n2, a2) -> n1 = n2 && Bgp_types.attrs_equal a1 a2)
          sliced sync)

let () =
  Alcotest.run "xorp_properties"
    [
      ( "decision_order",
        List.map Seeded.qcheck
          [ prop_decision_irreflexive; prop_decision_asymmetric;
            prop_decision_transitive; prop_decision_total_across_peers ] );
      ( "damping",
        List.map Seeded.qcheck [ prop_damping_decay_monotone ] );
      ( "rib_model",
        List.map Seeded.qcheck
          [ prop_rib_matches_flat_model; prop_decision_rib_match_flat_model ]
      );
      ( "fanout",
        List.map Seeded.qcheck
          [ prop_fanout_order_and_filtering ] );
      ( "lanes",
        List.map Seeded.qcheck
          [ prop_laneq_per_prefix_fifo; prop_sliced_inbound_equivalence ] );
    ]
