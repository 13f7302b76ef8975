(* PeerOut stages (RibOut): the tail of each output branch (Figure 5).

   Maintains the Adj-RIB-Out (what this peer has been told), applies
   the standard per-session-type attribute rules, batches changes, and
   packs them into UPDATE messages:

   - EBGP: prepend the local AS, set nexthop to our session address,
     strip LOCAL_PREF and MED, and drop routes whose AS path already
     contains the peer's AS (loop prevention becomes a withdrawal if
     the prefix was previously advertised).
   - IBGP: attributes pass unchanged, with LOCAL_PREF made explicit.

   Batching: changes accumulate and are flushed in bounded deferred
   slices, each packed by Bgp_packet.updates: withdrawals together,
   announcements grouped by identical attributes, every UPDATE cut at
   700 prefixes. The last change to a prefix wins, at push time: a change
   folds into the one already pending for its prefix, so [pending]
   holds at most one entry per prefix and lane, and in fact one per
   prefix (see [push_pending]). A replace is an add here: the
   Adj-RIB-Out is keyed by prefix.

   Lanes: pending changes ride the ambient urgent/bulk lane
   (Bgp_types.current_lane), so a flap propagating to this peer
   overtakes a table dump or bulk-load backlog still waiting in the
   bulk lane. Each flush drains the urgent lane dry, then a bounded
   bulk batch; the Laneq per-prefix guard keeps an urgent withdraw
   from overtaking a still-pending bulk announce of the same prefix
   (§5.1.2 across lanes). *)

(* Bulk-lane changes drained per flush slice: bounds the dedup/group/
   pack work one loop turn spends on a single peer's output. *)
let bulk_flush_slice = 2048

type change = Announce of Bgp_types.route | Withdraw of Ipv4net.t

let change_net = function
  | Announce r -> r.Bgp_types.net
  | Withdraw net -> net

class rib_out ~name ~(info : Bgp_types.peer_info) ~(local_as : int)
    ~(local_addr : Ipv4.t) ~(send : Bgp_packet.msg -> bool)
    ?(ordered = true) (loop : Eventloop.t) =
  object (self)
    inherit Bgp_table.base name
    val h_add = Telemetry.histogram ("bgp." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("bgp." ^ name ^ ".delete_us")
    val adv : Bgp_types.route Ptree.t = Ptree.create () (* Adj-RIB-Out *)
    val pending : change Laneq.t = Laneq.create ~ordered ()
    val mutable flush_scheduled = false
    val mutable updates_built = 0

    method advertised_count = Ptree.size adv
    method updates_built = updates_built
    method advertised net = Ptree.find adv net

    method private transform (r : Bgp_types.route) : Bgp_types.route option =
      let a = r.Bgp_types.attrs in
      match info.kind with
      | Bgp_types.Ebgp ->
        if Aspath.contains a.aspath info.peer_as then None
        else
          Some
            { r with
              Bgp_types.attrs =
                { a with
                  Bgp_types.aspath = Aspath.prepend local_as a.aspath;
                  nexthop = local_addr;
                  localpref = None;
                  med = None } }
      | Bgp_types.Ibgp ->
        Some
          { r with
            Bgp_types.attrs =
              { a with
                Bgp_types.localpref =
                  Some (Bgp_types.effective_localpref a) } }

    method private schedule_flush =
      if not flush_scheduled then begin
        flush_scheduled <- true;
        Eventloop.defer loop (fun () ->
            flush_scheduled <- false;
            self#flush)
      end

    (* Last change wins. An urgent change for a prefix with a bulk
       entry pending is demoted into it by the Laneq guard; a bulk
       change for a prefix with an urgent entry pending is folded into
       that one here. Either way, with the guard on, a prefix is
       pending in one lane at most, so a flush never meets it twice. *)
    method private push_pending ch =
      let net = change_net ch in
      let lane =
        match Bgp_types.current_lane () with
        | Laneq.Bulk when Laneq.mem pending Laneq.Urgent net -> Laneq.Urgent
        | lane -> lane
      in
      Laneq.push ~merge:(fun _ next -> Laneq.Merged next) pending lane ~net ch

    method add_route r =
      Telemetry.time h_add @@ fun () ->
      (match self#transform r with
       | Some r' ->
         ignore (Ptree.insert adv r'.Bgp_types.net r');
         self#push_pending (Announce r')
       | None ->
         (* Transform dropped it; withdraw any previous advertisement. *)
         (match Ptree.remove adv r.Bgp_types.net with
          | Some _ -> self#push_pending (Withdraw r.Bgp_types.net)
          | None -> ()));
      self#schedule_flush

    method delete_route r =
      Telemetry.time h_del @@ fun () ->
      match Ptree.remove adv r.Bgp_types.net with
      | Some _ ->
        self#push_pending (Withdraw r.Bgp_types.net);
        self#schedule_flush
      | None -> () (* never advertised (filtered/transform-dropped) *)

    (* add_route already overwrites the prefix's Adj-RIB-Out entry. *)
    method! replace_route _old r = self#add_route r

    method lookup_route net = Ptree.find adv net

    method private flush =
      (* One slice: the urgent lane drained dry, then a bounded bulk
         batch. Leftover bulk re-defers, so one peer's huge output
         backlog cannot monopolise a loop turn. *)
      let urgent, bulk = Laneq.drain pending ~bulk_slice:bulk_flush_slice in
      if not (Laneq.is_empty pending) then self#schedule_flush;
      (* Each prefix appears once in [urgent @ bulk], already carrying
         its latest change (see [push_pending]). *)
      let changes = urgent @ bulk in
      List.iter
        (fun msg ->
           updates_built <- updates_built + 1;
           ignore (send msg))
        (Bgp_packet.updates
           ~withdrawn:
             (List.filter_map
                (function Withdraw net -> Some net | Announce _ -> None)
                changes)
           ~announce:
             (List.filter_map
                (function
                  | Announce r -> Some (r.Bgp_types.attrs, r.Bgp_types.net)
                  | Withdraw _ -> None)
                changes))

    (* Session re-established: forget the Adj-RIB-Out (the peer lost
       everything) so the fresh dump starts clean. *)
    method session_reset =
      Ptree.clear adv;
      Laneq.clear pending

    method pending_length = Laneq.length pending
  end
