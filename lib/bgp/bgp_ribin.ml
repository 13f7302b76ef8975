(* The PeerIn stage (RibIn): the only place original routes are stored
   (paper §5.1 — "we only store the original versions of routes, in
   the Peer In stages"). One per peering.

   On peering failure the whole table is handed to a dynamic deletion
   stage (see Bgp_deletion) and the PeerIn restarts empty, so the
   session can come straight back up. Repeated flaps stack deletion
   stages; the PeerIn tracks them so a completed stage can be spliced
   out of the chain wherever it sits. *)

class rib_in ~name ~(peer_id : int) (loop : Eventloop.t) =
  object (self)
    inherit Bgp_table.base name
    val h_add = Telemetry.histogram ("bgp." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("bgp." ^ name ^ ".delete_us")
    val mutable store : Bgp_types.route Ptree.t = Ptree.create ()
    val mutable deletions : Bgp_deletion.deletion_table list = []

    method peer_id = peer_id
    method route_count = Ptree.size store
    method active_deletion_stages = List.length deletions

    (* Entry points for the session side. *)
    method add_route (r : Bgp_types.route) =
      Telemetry.time h_add @@ fun () ->
      assert (r.Bgp_types.peer_id = peer_id);
      match Ptree.insert store r.Bgp_types.net r with
      | Some old ->
        (* Implicit replacement: one replace downstream. *)
        self#push_replace old r
      | None -> self#push_add r

    method delete_route (r : Bgp_types.route) =
      Telemetry.time h_del @@ fun () ->
      match Ptree.remove store r.Bgp_types.net with
      | Some old -> self#push_delete old
      | None -> () (* withdrawal of something never announced: ignore *)

    (* Downstream stages pull through the PeerIn, whose answer must
       include routes still awaiting background deletion (§5.1.2):
       "routes not yet deleted will still be returned by lookup_route
       until after the deletion stage has sent a delete_route
       downstream". Victim sets of stacked deletion stages are disjoint
       per prefix, so scan order does not matter. *)
    method lookup_route net =
      match Ptree.find store net with
      | Some _ as r -> r
      | None -> List.find_map (fun d -> d#find_victim net) deletions

    method fold : 'acc. (Bgp_types.route -> 'acc -> 'acc) -> 'acc -> 'acc =
      fun f init -> Ptree.fold (fun _ r acc -> f r acc) store init

    method safe_iter = Ptree.Safe_iter.start store

    (* Splice [del] out of the chain below us once it has finished. Its
       predecessor is either this PeerIn or a younger deletion stage. *)
    method private unplumb (del : Bgp_deletion.deletion_table) =
      let del_t = (del :> Bgp_table.table) in
      let same (n : Bgp_table.table option) =
        match n with Some n -> n == del_t | None -> false
      in
      if same next then next <- del#next_table
      else
        List.iter
          (fun (d : Bgp_deletion.deletion_table) ->
             if same d#next_table then d#set_next del#next_table)
          deletions;
      deletions <- List.filter (fun d -> not (d == del)) deletions

    method peering_went_down ?(slice = 100) () =
      if Ptree.size store > 0 then begin
        let victims = store in
        store <- Ptree.create ();
        let del =
          new Bgp_deletion.deletion_table
            ~name:(name ^ ":deletion") ~victims
            ~parent:(self :> Bgp_table.table)
            loop
        in
        del#set_next next;
        next <- Some (del :> Bgp_table.table);
        deletions <- del :: deletions;
        del#start ~slice ~on_complete:(fun () -> self#unplumb del) ()
      end
  end
