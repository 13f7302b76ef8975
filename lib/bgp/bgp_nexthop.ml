(* Nexthop-resolver stages (paper §5.1.1, Figure 5).

   BGP must know whether each route's nexthop is reachable and at what
   IGP metric ("hot potato" routing needs the metric to the nearest
   exit). The resolver talks asynchronously to the RIB: routes are held
   in a queue until the relevant nexthop metrics arrive, "avoiding the
   need for the Decision Process to wait on asynchronous operations".

   Answers come with the validity subnet of §5.2.1 (the largest
   enclosing subnet with a uniform answer), which we cache; since
   returned subnets never overlap, a longest-match lookup in the cache
   is authoritative. When the RIB invalidates a subnet, affected
   nexthops are re-queried and any routes whose annotation changes are
   re-issued downstream as one replace each.

   A replace whose new nexthop is answered in the cache, for a route
   that is not waiting on a query, passes on as one replace. Any other
   replace is a delete of the old route and an add of the new one: the
   new route may have to wait for its answer, and Decision must not
   see the old one meanwhile. *)

type answer = { resolvable : bool; metric : int; valid : Ipv4net.t }

type resolve_fn = Ipv4.t -> (answer -> unit) -> unit

class nexthop_table ~name ~(resolve : resolve_fn) () =
  object (self)
    inherit Bgp_table.base name
    val cache : (bool * int) Ptree.t = Ptree.create ()
    val store : Bgp_types.route Ptree.t = Ptree.create ()
    val pending : (int, Bgp_types.route list ref) Hashtbl.t = Hashtbl.create 16
    (* nexthop -> set of nets currently in [store] with that nexthop.
       An inner hashtable: many thousands of routes can share one
       nexthop, so membership must not be a list scan. *)
    val nh_index : (int, (Ipv4net.t, unit) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 16

    method pending_count =
      Hashtbl.fold (fun _ l acc -> acc + List.length !l) pending 0

    method cache_size = Ptree.size cache

    method private index_add nh_key net =
      match Hashtbl.find_opt nh_index nh_key with
      | Some set -> Hashtbl.replace set net ()
      | None ->
        let set = Hashtbl.create 64 in
        Hashtbl.replace set net ();
        Hashtbl.replace nh_index nh_key set

    method private index_remove nh_key net =
      match Hashtbl.find_opt nh_index nh_key with
      | Some set ->
        Hashtbl.remove set net;
        if Hashtbl.length set = 0 then Hashtbl.remove nh_index nh_key
      | None -> ()

    method private annotate (r : Bgp_types.route) resolvable metric =
      { r with
        Bgp_types.igp_metric = (if resolvable then Some metric else None) }

    method private annotate_and_emit (r : Bgp_types.route) resolvable metric =
      let r' = self#annotate r resolvable metric in
      let nh_key = Ipv4.to_int r.Bgp_types.attrs.Bgp_types.nexthop in
      (match Ptree.insert store r'.Bgp_types.net r' with
       | Some old ->
         (* Shouldn't normally happen (upstream replaces arrive as
            replace_route), but keep the stream consistent if it
            does. *)
         self#index_remove
           (Ipv4.to_int old.Bgp_types.attrs.Bgp_types.nexthop)
           old.Bgp_types.net;
         self#push_delete old
       | None -> ());
      self#index_add nh_key r'.Bgp_types.net;
      self#push_add r'

    method private got_answer nh (a : answer) =
      ignore (Ptree.insert cache a.valid (a.resolvable, a.metric));
      match Hashtbl.find_opt pending (Ipv4.to_int nh) with
      | Some l ->
        let routes = List.rev !l in
        Hashtbl.remove pending (Ipv4.to_int nh);
        List.iter
          (fun r -> self#annotate_and_emit r a.resolvable a.metric)
          routes
      | None -> ()

    method add_route r =
      let nh = r.Bgp_types.attrs.Bgp_types.nexthop in
      match Ptree.longest_match cache nh with
      | Some (_, (resolvable, metric)) ->
        self#annotate_and_emit r resolvable metric
      | None ->
        (match Hashtbl.find_opt pending (Ipv4.to_int nh) with
         | Some l -> l := r :: !l
         | None ->
           Hashtbl.replace pending (Ipv4.to_int nh) (ref [ r ]);
           resolve nh (fun a -> self#got_answer nh a))

    method delete_route r =
      let net = r.Bgp_types.net in
      let nh_key = Ipv4.to_int r.Bgp_types.attrs.Bgp_types.nexthop in
      (* Was it still waiting for resolution? *)
      match Hashtbl.find_opt pending nh_key with
      | Some l when List.exists (fun p -> Ipv4net.equal p.Bgp_types.net net) !l
        ->
        l := List.filter (fun p -> not (Ipv4net.equal p.Bgp_types.net net)) !l
      | _ ->
        (match Ptree.remove store net with
         | Some stored ->
           self#index_remove nh_key net;
           self#push_delete stored
         | None -> ())

    method private is_pending (r : Bgp_types.route) =
      match
        Hashtbl.find_opt pending
          (Ipv4.to_int r.Bgp_types.attrs.Bgp_types.nexthop)
      with
      | Some l ->
        List.exists
          (fun p -> Ipv4net.equal p.Bgp_types.net r.Bgp_types.net)
          !l
      | None -> false

    method! replace_route old r =
      let net = r.Bgp_types.net in
      let answer =
        Ptree.longest_match cache r.Bgp_types.attrs.Bgp_types.nexthop
      in
      match answer, Ptree.find store net with
      | Some (_, (resolvable, metric)), Some stored
        when not (self#is_pending old) ->
        let r' = self#annotate r resolvable metric in
        ignore (Ptree.insert store net r');
        self#index_remove
          (Ipv4.to_int stored.Bgp_types.attrs.Bgp_types.nexthop)
          net;
        self#index_add (Ipv4.to_int r.Bgp_types.attrs.Bgp_types.nexthop) net;
        self#push_replace stored r'
      | _ ->
        self#delete_route old;
        self#add_route r

    method lookup_route net = Ptree.find store net

    (* The RIB invalidated its answer for [subnet]: drop covered cache
       entries, re-query affected nexthops and re-issue any routes
       whose annotation changed. *)
    method invalidate (subnet : Ipv4net.t) =
      let stale =
        Ptree.fold_within cache subnet (fun k _ acc -> k :: acc) []
      in
      List.iter (fun k -> ignore (Ptree.remove cache k)) stale;
      let affected =
        Hashtbl.fold
          (fun key _ acc ->
             if Ipv4net.contains_addr subnet (Ipv4.of_int key) then
               Ipv4.of_int key :: acc
             else acc)
          nh_index []
      in
      List.iter
        (fun nh ->
           resolve nh (fun a ->
               ignore (Ptree.insert cache a.valid (a.resolvable, a.metric));
               match Hashtbl.find_opt nh_index (Ipv4.to_int nh) with
               | None -> ()
               | Some nets ->
                 Hashtbl.iter
                   (fun net () ->
                      match Ptree.find store net with
                      | Some stored ->
                        let igp =
                          if a.resolvable then Some a.metric else None
                        in
                        if stored.Bgp_types.igp_metric <> igp then begin
                          let updated =
                            { stored with Bgp_types.igp_metric = igp }
                          in
                          ignore (Ptree.insert store net updated);
                          self#push_replace stored updated
                        end
                      | None -> ())
                   nets))
        affected
  end
