(* The ExtInt stage (paper §5.2, Figure 7): composes the external
   (BGP) route stream with the internal (IGP) stream.

   Two jobs:
   - conflict resolution for the same prefix, by administrative
     distance (internal wins ties);
   - nexthop gating: an external route is only usable if its nexthop
     resolves through the internal routes. Unresolvable externals are
     held and re-evaluated whenever internal routing changes.

   The stage keeps a small amount of duplicated state (the set of
   currently-propagated winners, and per-nexthop indexes) — the
   explicit trade-off §5.1 makes for stage independence.

   A replacement arrives as one replace: the prefix is re-evaluated
   once, and a changed winner leaves as a replace of the propagated
   route; a winner equal to the propagated one (a route re-originated
   as it was) leaves nothing. An internal replace rechecks the external
   nexthops inside its prefix once, after the new route is in place, so
   an external route that resolved through the old route and resolves
   through the new one is left alone. *)

let resolves_via (int_ : Rib_table.table) (nexthop : Ipv4.t) =
  int_#lookup_best nexthop <> None

class extint_table ~name (ext : Rib_table.table) (int_ : Rib_table.table) =
  object (self)
    inherit Rib_table.base name
    val h_add = Telemetry.histogram ("rib." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("rib." ^ name ^ ".delete_us")
    val propagated : Rib_route.t Ptree.t = Ptree.create ()
    val ext_state : (Rib_route.t * bool ref) Ptree.t = Ptree.create ()
    (* nexthop -> set of external nets using it; inner hashtable so
       membership updates stay O(1) under full-table load. *)
    val by_nexthop : (int, (Ipv4net.t, unit) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 32

    method private reevaluate net =
      let int_route = int_#lookup_route net in
      let ext_route =
        match Ptree.find ext_state net with
        | Some (e, resolved) when !resolved -> Some e
        | _ -> None
      in
      let winner =
        match int_route, ext_route with
        | None, None -> None
        | (Some _ as w), None | None, (Some _ as w) -> w
        | Some i, Some e ->
          Some
            (if i.Rib_route.admin_distance <= e.Rib_route.admin_distance
             then i
             else e)
      in
      match Ptree.find propagated net, winner with
      | None, None -> ()
      | Some o, Some w when Rib_route.equal o w -> ()
      | None, Some w ->
        ignore (Ptree.insert propagated net w);
        self#push_add w
      | Some o, None ->
        ignore (Ptree.remove propagated net);
        self#push_delete o
      | Some o, Some w ->
        ignore (Ptree.insert propagated net w);
        self#push_replace o w

    method private index_add nh net =
      let key = Ipv4.to_int nh in
      match Hashtbl.find_opt by_nexthop key with
      | Some set -> Hashtbl.replace set net ()
      | None ->
        let set = Hashtbl.create 64 in
        Hashtbl.replace set net ();
        Hashtbl.replace by_nexthop key set

    method private index_remove nh net =
      let key = Ipv4.to_int nh in
      match Hashtbl.find_opt by_nexthop key with
      | Some set ->
        Hashtbl.remove set net;
        if Hashtbl.length set = 0 then Hashtbl.remove by_nexthop key
      | None -> ()

    (* Re-check resolvability of external routes whose nexthop lies
       inside [net] (an internal route there just changed). *)
    method private recheck_nexthops_within net =
      let touched =
        Hashtbl.fold
          (fun key set acc ->
             if Ipv4net.contains_addr net (Ipv4.of_int key) then
               Hashtbl.fold (fun n () acc -> n :: acc) set acc
             else acc)
          by_nexthop []
      in
      List.iter
        (fun enet ->
           match Ptree.find ext_state enet with
           | Some (e, resolved) ->
             let now = resolves_via int_ e.Rib_route.nexthop in
             if now <> !resolved then begin
               resolved := now;
               self#reevaluate enet
             end
           | None -> ())
        touched

    method private store_ext (r : Rib_route.t) =
      let resolved = ref (resolves_via int_ r.nexthop) in
      (match Ptree.insert ext_state r.net (r, resolved) with
       | Some (old, _) -> self#index_remove old.Rib_route.nexthop old.net
       | None -> ());
      self#index_add r.nexthop r.net

    method add_route src (r : Rib_route.t) =
      Telemetry.time h_add @@ fun () ->
      if src == ext then begin
        self#store_ext r;
        self#reevaluate r.net
      end
      else begin
        self#reevaluate r.net;
        self#recheck_nexthops_within r.net
      end

    (* Storing the new route over the old is all a replace needs. *)
    method! replace_route src _old r = self#add_route src r

    method delete_route src (r : Rib_route.t) =
      Telemetry.time h_del @@ fun () ->
      if src == ext then begin
        (match Ptree.remove ext_state r.net with
         | Some (old, _) -> self#index_remove old.Rib_route.nexthop old.net
         | None -> ());
        self#reevaluate r.net
      end
      else begin
        self#reevaluate r.net;
        self#recheck_nexthops_within r.net
      end

    method lookup_route net = Ptree.find propagated net
    method lookup_best addr = Option.map snd (Ptree.longest_match propagated addr)

    method propagated_count = Ptree.size propagated

    method fold : 'acc. (Rib_route.t -> 'acc -> 'acc) -> 'acc -> 'acc =
      fun f init -> Ptree.fold (fun _ r acc -> f r acc) propagated init
  end
