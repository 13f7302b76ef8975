(* The consistency-checking cache stage (paper §5.1):

   "we have developed an extra consistency checking stage for
   debugging purposes. This cache stage, just after the outgoing filter
   bank in the output pipeline to each peer, has helped us discover
   many subtle bugs that would otherwise have gone undetected. While
   not intended for normal production use, this stage could aid with
   debugging if a consistency error is suspected."

   It shadows the stream flowing through it and records violations of
   the §5.1 consistency rules at the (net, peer) granularity:
   - a delete for a prefix that was never added;
   - a delete whose route disagrees with the cached add;
   - a replace for a prefix that was never added, or whose old route
     disagrees with the cached add;
   - a lookup_route answer from upstream that disagrees with the
     add/delete stream already seen.
   Violations are recorded (and logged); traffic passes through
   unmodified either way. *)

let src = Logs.Src.create "xorp.bgp.cache" ~doc:"BGP consistency cache"

module Log = (val Logs.src_log src : Logs.LOG)

class cache_table ~name ~(parent : Bgp_table.table) () =
  object (self)
    inherit Bgp_table.base name
    val cache : Bgp_types.route Ptree.t = Ptree.create ()
    val mutable violations : string list = []

    method violations = List.rev violations
    method violation_count = List.length violations
    method cached_count = Ptree.size cache

    method private record msg =
      violations <- msg :: violations;
      Log.warn (fun m -> m "%s: consistency violation: %s" name msg)

    method add_route r =
      ignore (Ptree.insert cache r.Bgp_types.net r);
      self#push_add r

    method delete_route r =
      (match Ptree.remove cache r.Bgp_types.net with
       | None ->
         self#record
           (Printf.sprintf "delete for %s which was never added"
              (Ipv4net.to_string r.Bgp_types.net))
       | Some cached ->
         if cached.Bgp_types.peer_id <> r.Bgp_types.peer_id then
           self#record
             (Printf.sprintf "delete for %s from peer %d, but peer %d added it"
                (Ipv4net.to_string r.Bgp_types.net)
                r.Bgp_types.peer_id cached.Bgp_types.peer_id));
      self#push_delete r

    method! replace_route old r =
      (match Ptree.find cache r.Bgp_types.net with
       | None ->
         self#record
           (Printf.sprintf "replace for %s which was never added"
              (Ipv4net.to_string r.Bgp_types.net))
       | Some cached ->
         if cached.Bgp_types.peer_id <> old.Bgp_types.peer_id then
           self#record
             (Printf.sprintf
                "replace for %s from peer %d, but peer %d added it"
                (Ipv4net.to_string r.Bgp_types.net)
                old.Bgp_types.peer_id cached.Bgp_types.peer_id));
      ignore (Ptree.insert cache r.Bgp_types.net r);
      self#push_replace old r

    method lookup_route net =
      let upstream = parent#lookup_route net in
      (match upstream, Ptree.find cache net with
       | Some u, Some c ->
         if not (Bgp_types.route_equal u c) then
           self#record
             (Printf.sprintf
                "lookup for %s disagrees with stream (up %s vs seen %s)"
                (Ipv4net.to_string net)
                (Bgp_types.route_to_string u)
                (Bgp_types.route_to_string c))
       | Some u, None ->
         self#record
           (Printf.sprintf "lookup finds %s upstream but no add was streamed"
              (Bgp_types.route_to_string u))
       | None, Some c ->
         self#record
           (Printf.sprintf
              "lookup finds nothing upstream but %s was streamed"
              (Bgp_types.route_to_string c))
       | None, None -> ());
      upstream
  end
