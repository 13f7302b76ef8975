(* Dynamic deletion stages (paper §5.1.2, Figure 6).

   When a peering goes down, deleting 100k+ routes in one event handler
   would stall the router, and the peering may come back up before the
   deletion finishes. So the PeerIn hands its entire route table to a
   freshly created deletion stage plumbed directly after it, and starts
   over with an empty table — immediately ready for the peering to
   return.

   The deletion stage walks its victim table as a background task,
   emitting delete_route messages downstream. Consistency is preserved
   against concurrent traffic: an add_route passing through for a
   prefix still held here leaves as a replace of the old route.
   lookup_route answers with the upstream (new) route if one
   exists, else the not-yet-deleted victim. Downstream stages never
   know a background deletion is happening. If the peering flaps
   repeatedly, deletion stages stack up, each holding a disjoint set of
   victims; each unplumbs and discards itself when its work is done. *)

class deletion_table ~name ~(victims : Bgp_types.route Ptree.t)
    ~(parent : Bgp_table.table) (loop : Eventloop.t) =
  object (self)
    inherit Bgp_table.base name
    val mutable task : Eventloop.task option = None
    val mutable deleted = 0

    method victims_remaining = Ptree.size victims
    method deleted_count = deleted

    (* [slice] = victims deleted per background slice. *)
    method start ?(slice = 100) ~(on_complete : unit -> unit) () =
      let it = Ptree.Safe_iter.start victims in
      let one () =
        match Ptree.Safe_iter.next it with
        | None ->
          task <- None;
          on_complete ();
          `Done
        | Some (net, r) ->
          ignore (Ptree.remove victims net);
          deleted <- deleted + 1;
          (* A whole-table teardown is bulk work: it must not crowd
             fresh updates out of the urgent lane downstream. *)
          Bgp_types.with_lane Laneq.Bulk (fun () -> self#push_delete r);
          `Continue
      in
      task <- Some (Eventloop.add_task loop ~weight:slice one)

    method add_route r =
      (* A new session re-announced a prefix we still hold: the old
         route's deletion can no longer wait. *)
      match Ptree.remove victims r.Bgp_types.net with
      | Some old ->
        deleted <- deleted + 1;
        self#push_replace old r
      | None -> self#push_add r

    (* The PeerIn replaces a route it stored after this stage was
       spliced in, so no victim is held for the prefix: the add of
       [old] passed through here and purged it. *)
    method! replace_route old r = self#push_replace old r

    method delete_route r =
      (* The new session withdrew a prefix. If we happen to still hold
         an old victim for it (the add purged it, so normally not),
         translate to the victim's deletion. *)
      match Ptree.remove victims r.Bgp_types.net with
      | Some old ->
        deleted <- deleted + 1;
        self#push_delete old
      | None -> self#push_delete r

    method lookup_route net =
      match parent#lookup_route net with
      | Some _ as r -> r
      | None -> Ptree.find victims net

    method find_victim net = Ptree.find victims net
  end
