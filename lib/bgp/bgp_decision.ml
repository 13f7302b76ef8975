(* The Decision Process (paper §5.1.1, Figure 5) — deliberately simple
   because nexthop resolution was factored out into upstream resolver
   stages: by the time a route reaches Decision it is already annotated
   with its IGP metric, so deciding is a pure comparison.

   Decision has one parent per peer branch. On any add, delete or
   replace it pulls the current candidate from every branch via
   lookup_route, picks the best by the standard BGP tie-break ladder,
   diffs against its winner cache, and emits the delta downstream (to
   the fanout): an add, a delete, or a replace of the old winner by
   the new. A replace from a branch is one re-evaluation, made after
   the branch already holds the new route.
   The winner cache is duplicated state — the memory cost §5.1 accepts
   for stage independence — and doubles as the table dumped to newly
   established peers. *)

(* The tie-break ladder. Returns true when [a] beats [b]. *)
let better (a : Bgp_types.route) (ia : Bgp_types.peer_info)
    (b : Bgp_types.route) (ib : Bgp_types.peer_info) =
  let cmp =
    (* 1. higher localpref *)
    let c =
      compare
        (Bgp_types.effective_localpref b.attrs)
        (Bgp_types.effective_localpref a.attrs)
    in
    if c <> 0 then c
    else
      (* 2. shorter AS path *)
      let c = compare (Aspath.length a.attrs.aspath) (Aspath.length b.attrs.aspath) in
      if c <> 0 then c
      else
        (* 3. lowest origin *)
        let c =
          compare
            (Bgp_types.origin_rank a.attrs.origin)
            (Bgp_types.origin_rank b.attrs.origin)
        in
        if c <> 0 then c
        else
          (* 4. lowest MED, comparable only within one neighbour AS *)
          let c =
            match Aspath.first_as a.attrs.aspath, Aspath.first_as b.attrs.aspath with
            | Some x, Some y when x = y ->
              compare
                (Option.value a.attrs.med ~default:0)
                (Option.value b.attrs.med ~default:0)
            | _ -> 0
          in
          if c <> 0 then c
          else
            (* 5. EBGP-learned over IBGP-learned *)
            let rank_kind (i : Bgp_types.peer_info) =
              match i.kind with Bgp_types.Ebgp -> 0 | Bgp_types.Ibgp -> 1
            in
            let c = compare (rank_kind ia) (rank_kind ib) in
            if c <> 0 then c
            else
              (* 6. lowest IGP metric to nexthop: hot-potato routing *)
              let metric r =
                Option.value r.Bgp_types.igp_metric ~default:max_int
              in
              let c = compare (metric a) (metric b) in
              if c <> 0 then c
              else
                (* 7. lowest BGP identifier *)
                let c = Ipv4.compare ia.peer_bgp_id ib.peer_bgp_id in
                if c <> 0 then c
                else
                  (* 8. lowest peer address *)
                  Ipv4.compare ia.peer_addr ib.peer_addr
  in
  cmp < 0

class decision_table ~name () =
  object (self)
    inherit Bgp_table.base name
    val h_add = Telemetry.histogram ("bgp." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("bgp." ^ name ^ ".delete_us")
    val mutable parents : (int * Bgp_table.table) list = []
    val infos : (int, Bgp_types.peer_info) Hashtbl.t = Hashtbl.create 16
    val winners : Bgp_types.route Ptree.t = Ptree.create ()

    method add_parent ~(info : Bgp_types.peer_info) (tbl : Bgp_table.table) =
      parents <- (info.peer_id, tbl) :: parents;
      Hashtbl.replace infos info.peer_id info

    method remove_parent peer_id =
      parents <- List.filter (fun (id, _) -> id <> peer_id) parents;
      Hashtbl.remove infos peer_id

    method peer_info peer_id = Hashtbl.find_opt infos peer_id
    method winner_count = Ptree.size winners

    method private best net =
      List.fold_left
        (fun best (peer_id, tbl) ->
           match tbl#lookup_route net with
           | Some r when r.Bgp_types.igp_metric <> None ->
             (* unresolved routes are invisible to Decision *)
             (match Hashtbl.find_opt infos peer_id with
              | None -> best
              | Some info ->
                (match best with
                 | None -> Some (r, info)
                 | Some (br, bi) ->
                   if better r info br bi then Some (r, info) else best))
           | _ -> best)
        None parents

    method private reevaluate net =
      let winner = Option.map fst (self#best net) in
      let old = Ptree.find winners net in
      match old, winner with
      | None, None -> ()
      | Some o, Some w when Bgp_types.route_equal o w -> ()
      | None, Some w ->
        ignore (Ptree.insert winners net w);
        self#push_add w
      | Some o, None ->
        ignore (Ptree.remove winners net);
        self#push_delete o
      | Some o, Some w ->
        ignore (Ptree.insert winners net w);
        self#push_replace o w

    method add_route r =
      Telemetry.time h_add (fun () -> self#reevaluate r.Bgp_types.net)

    method! replace_route _old r =
      Telemetry.time h_add (fun () -> self#reevaluate r.Bgp_types.net)

    method delete_route r =
      Telemetry.time h_del (fun () -> self#reevaluate r.Bgp_types.net)
    method lookup_route net = Ptree.find winners net

    method fold_winners
      : 'acc. (Bgp_types.route -> 'acc -> 'acc) -> 'acc -> 'acc =
      fun f init -> Ptree.fold (fun _ r acc -> f r acc) winners init

    method winners_iter = Ptree.Safe_iter.start winners
  end
