(* Origin tables: where routes are actually stored (paper §5.2 —
   "routes are stored only in the origin stages"). One per protocol
   feeding the RIB.

   When a protocol dies wholesale (Finder death notification), its
   routes are deleted gradually by a background task so that a huge
   table cannot stall the event loop — the RIB-side analogue of BGP's
   deletion stages (§5.1.2). Routes re-originated while the gradual
   clear runs carry a newer generation number and are left alone. *)

class origin_table ~name ~protocol (loop : Eventloop.t) =
  object (self)
    inherit Rib_table.base name
    val store : (int * Rib_route.t) Ptree.t = Ptree.create ()
    val mutable generation = 0
    val mutable clearing = false
    val h_add = Telemetry.histogram ("rib." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("rib." ^ name ^ ".delete_us")

    method protocol : string = protocol
    method route_count = Ptree.size store

    (* Entry point for the owning protocol; timed here (not in
       add_route) because Rib.add_route calls originate directly. *)
    method originate (r : Rib_route.t) =
      Telemetry.time h_add @@ fun () ->
      match Ptree.insert store r.Rib_route.net (generation, r) with
      | Some (_, old) -> self#push_replace old r
      | None -> self#push_add r

    method withdraw (net : Ipv4net.t) =
      Telemetry.time h_del @@ fun () ->
      match Ptree.remove store net with
      | Some (_, old) -> self#push_delete old
      | None -> ()

    (* Gradual wholesale deletion; [slice] routes per background slice,
       each delete pushed downstream inside [around] (the RIB's files
       it in the bulk lane). Returns immediately; deletion proceeds
       when the loop is idle. *)
    method clear_gradually ?(slice = 100) ?(on_done = fun () -> ())
        ?(around = fun f -> f ()) () =
      if not clearing then begin
        clearing <- true;
        generation <- generation + 1;
        let cutoff = generation in
        let it = Ptree.Safe_iter.start store in
        let delete_one () =
          match Ptree.Safe_iter.next it with
          | None ->
            clearing <- false;
            on_done ();
            `Done
          | Some (net, (gen, r)) ->
            if gen < cutoff then begin
              ignore (Ptree.remove store net);
              around (fun () -> self#push_delete r)
            end;
            `Continue
        in
        ignore (Eventloop.add_task loop ~weight:slice delete_one)
      end

    method clearing = clearing

    method add_route _src r = self#originate r
    method! replace_route _src _old r = self#originate r
    method delete_route _src (r : Rib_route.t) = self#withdraw r.Rib_route.net

    method lookup_route net =
      Option.map snd (Ptree.find store net)

    method lookup_best addr =
      Option.map (fun (_, (_, r)) -> r) (Ptree.longest_match store addr)

    method fold : 'acc. (Rib_route.t -> 'acc -> 'acc) -> 'acc -> 'acc =
      fun f init -> Ptree.fold (fun _ (_, r) acc -> f r acc) store init
  end
