(* The Register stage (paper §5.2.1, Figure 8): interest registration.

   Clients (BGP for its nexthops, PIM for sources, future extensions)
   ask "how is address X routed?". The answer is the matching route
   plus the largest enclosing subnet for which that answer is valid —
   the largest subnet containing X that no more-specific route
   overlays. The client may cache the answer for every address in that
   subnet; when routing changes inside a registered subnet, the stage
   sends a single "cache invalidated" message and drops the
   registration, and the client re-queries.

   Because no returned subnet ever overlaps another in a client's
   cache, clients can use balanced trees for lookup (paper §5.2.1). *)

type registration = {
  valid : Ipv4net.t; (* the subnet the cached answer covers *)
  mutable clients : string list; (* client identifiers *)
}

type answer = {
  matched : Rib_route.t option; (* None: address currently unrouted *)
  valid_subnet : Ipv4net.t;
}

class register_table ~name ~(notify : string -> Ipv4net.t -> unit) () =
  object (self)
    inherit Rib_table.base name
    val h_add = Telemetry.histogram ("rib." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("rib." ^ name ^ ".delete_us")
    val winners : Rib_route.t Ptree.t = Ptree.create ()
    val regs : registration Ptree.t = Ptree.create ()
    val mutable invalidations_sent = 0

    method register_interest ~(client : string) (addr : Ipv4.t) : answer =
      let matched = Option.map snd (Ptree.longest_match winners addr) in
      let valid = Ptree.largest_enclosing_hole winners addr in
      (match Ptree.find regs valid with
       | Some reg ->
         if not (List.mem client reg.clients) then
           reg.clients <- client :: reg.clients
       | None -> ignore (Ptree.insert regs valid { valid; clients = [ client ] }));
      { matched; valid_subnet = valid }

    method deregister_interest ~(client : string) (valid : Ipv4net.t) : bool =
      match Ptree.find regs valid with
      | None -> false
      | Some reg ->
        reg.clients <- List.filter (fun c -> c <> client) reg.clients;
        if reg.clients = [] then ignore (Ptree.remove regs valid);
        true

    method registration_count = Ptree.size regs
    method invalidations_sent = invalidations_sent

    (* A route for [net] changed. Any registration whose valid subnet
       overlaps [net] may now have a stale answer: notify and drop. *)
    method private invalidate_overlapping (net : Ipv4net.t) =
      let overlapping =
        List.map snd (Ptree.containing regs net)
        @ Ptree.fold_within regs net (fun _ reg acc -> reg :: acc) []
      in
      (* A registration can appear in both lists when reg.valid = net;
         removal makes the second notification impossible. *)
      List.iter
        (fun reg ->
           match Ptree.remove regs reg.valid with
           | None -> () (* already handled *)
           | Some _ ->
             List.iter
               (fun client ->
                  invalidations_sent <- invalidations_sent + 1;
                  notify client reg.valid)
               reg.clients)
        overlapping

    method add_route _src (r : Rib_route.t) =
      Telemetry.time h_add @@ fun () ->
      ignore (Ptree.insert winners r.net r);
      self#invalidate_overlapping r.net;
      self#push_add r

    method delete_route _src (r : Rib_route.t) =
      Telemetry.time h_del @@ fun () ->
      ignore (Ptree.remove winners r.net);
      self#invalidate_overlapping r.net;
      self#push_delete r

    (* One invalidation pass: both routes cover the same prefix. *)
    method! replace_route _src old (r : Rib_route.t) =
      Telemetry.time h_add @@ fun () ->
      ignore (Ptree.insert winners r.net r);
      self#invalidate_overlapping r.net;
      self#push_replace old r

    method lookup_route net = Ptree.find winners net
    method lookup_best addr = Option.map snd (Ptree.longest_match winners addr)
    method route_count = Ptree.size winners

    method fold : 'acc. (Rib_route.t -> 'acc -> 'acc) -> 'acc -> 'acc =
      fun f init -> Ptree.fold (fun _ r acc -> f r acc) winners init

    method iter_safe = Ptree.Safe_iter.start winners
  end
