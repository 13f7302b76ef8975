(** The BGP component: sessions, the staged pipeline of Figure 5, RIB
    interaction, and the [bgp/1.0] XRL interface.

    Per-peer input branch:
    {v PeerIn → [deletion stages]* → import filters → [damping] →
       nexthop resolver → Decision v}
    and output branch:
    {v Fanout reader → export filters → [checking cache] → PeerOut →
       session v}
    plus a RIB branch on the fanout that pushes winning routes to the
    ["rib"] component (origin table ["ebgp"] or ["ibgp"]) through
    {!Rib_client}, whose flushes leave as packed [rib/1.0/add_routes4]
    and [delete_routes4] runs, each stating its lane, as RIP's and
    OSPF's do. A replacement that changes none of what the RIB stores
    (nexthop and metric) is dropped before it queues.

    Sessions run real RFC 4271 messages over {!Netsim} streams. Peering
    loss hands the PeerIn's table to a dynamic deletion stage
    (§5.1.2) and the session may come straight back up; re-established
    sessions receive a background dump of the current winners.

    Nexthop resolution uses the RIB's [register_interest] XRLs
    (§5.2.1), with the answer cache invalidated via the
    [rib_client/1.0/route_info_invalid] callback; or, for standalone
    topologies without a RIB, the [`Assume_resolvable] mode. *)

type t

type peer_config = {
  peer_addr : Ipv4.t;
  local_addr : Ipv4.t;
  peer_as : int;
  hold_time : float;
  connect_retry : float;
  passive : bool option;
  (** [None]: the side with the lower address dials. *)
  import_policies : Policy.program list;
  export_policies : Policy.program list;
  damping : Bgp_damping.params option;
  (** [Some p] plumbs a damping stage into this peer's input branch. *)
  checking_cache : bool;
  (** Plumb the §5.1 consistency-checking cache stage into the output
      branch (debugging). *)
  deletion_slice : int;
  (** Routes deleted per background slice after a peering loss. *)
  aggregates : Bgp_aggregation.aggregate_config list;
  (** Aggregation stages for this peer's output branch: while any
      component route inside an aggregate prefix is alive, the
      aggregate is announced (ATOMIC_AGGREGATE, empty AS path), with
      the more-specifics optionally suppressed. *)
}

val default_peer_config :
  peer_addr:Ipv4.t -> local_addr:Ipv4.t -> peer_as:int -> peer_config
(** hold 90 s, retry 5 s, auto dial direction, no policies, no damping,
    no checking cache, deletion slice 100. *)

val create :
  ?families:Pf.family list ->
  ?nexthop_mode:[ `Rib | `Assume_resolvable ] ->
  ?bgp_port:int ->
  ?inbound_slice:int ->
  ?urgent_threshold:int ->
  ?lane_ordered:bool ->
  ?rib_rebirth_resync:bool ->
  ?redump_on_reestablish:bool ->
  Finder.t -> Eventloop.t -> netsim:Netsim.t ->
  local_as:int -> bgp_id:Ipv4.t -> unit -> t
(** Registers component class ["bgp"] with the Finder. [families]
    selects the XRL transports of the component's endpoint (default:
    intra-process; the simulation harness passes a chaos-wrapped
    family). [nexthop_mode] defaults to [`Rib]; [bgp_port] defaults to
    179.

    [inbound_slice] (default 64) is the per-loop-turn work bound of
    each peer's inbound staging task: received UPDATEs that cannot be
    processed synchronously are staged per peer and drained
    [inbound_slice] route operations per turn by a background task
    (§4), so a 146k-route table load never monopolises the loop.
    [urgent_threshold] (default 64) decides the lane of each drained
    operation: while a peer's staged backlog is at least the threshold
    the drain is a bulk load, below it the operations are urgent (a
    flap during the load). An UPDATE carrying fewer than
    [urgent_threshold] operations arriving on an empty staging queue
    is processed synchronously in the urgent lane — the idle-path
    behaviour is exactly the pre-slicing pipeline.

    [lane_ordered] (default true) keeps the per-prefix FIFO guard of
    the urgent/bulk lanes everywhere (an urgent change for a prefix
    with bulk work still queued is demoted behind it, §5.1.2), the
    RIB client's queue included ({!Rib_client.create}'s [ordered]).
    [lane_ordered:false] is the deliberately broken variant the
    simulation fuzzer must catch.

    Route changes for the RIB are pushed to {!Rib_client}, whose queue
    is named [bgp.rib_q], each in the lane of the work that made it.
    While no RIB instance is live they are dropped, so a BGP whose
    Finder has no RIB sends nothing. [rib_rebirth_resync] (default true) is
    {!Rib_client.create}'s [resync]: a (re)born RIB gets the
    redistribution subscriptions again and a replay of the full
    post-decision winner set on the bulk lane, counted in
    [bgp.rib_resync.replayed], and every cached nexthop resolution is
    re-queried. [false] is the deliberately broken variant behind the
    fuzzer's [rib-no-resync] injected bug: nothing is re-sent to the
    reborn RIB.

    [redump_on_reestablish] (default true) re-dumps the full winners
    table to a peer whose session re-reaches Established after going
    down (the peer dropped everything previously advertised with the
    session). [false] is the deliberately broken variant behind the
    fuzzer's [mesh-partition-heal] injected bug: after a severed link
    heals only post-heal deltas flow, so routes that predate the cut
    never reach the peer again.

    @raise Invalid_argument if [inbound_slice] or [urgent_threshold]
    is not positive. *)

val add_peer : t -> peer_config -> unit
(** @raise Invalid_argument if the peer address is already configured. *)

val remove_peer : t -> Ipv4.t -> unit
(** Administrative stop; the peer's routes are flushed in the
    background by a deletion stage. *)

val start : t -> unit
(** Begin listening and dialing. *)

val originate : t -> Ipv4net.t -> unit
(** Advertise a locally originated network to all peers. *)

val subscribe_rib_redistribution : t -> policy:string -> unit
(** Ask the RIB to redistribute matching routes into BGP
    ({!Rib_client.subscribe_redistribution}); they are advertised with
    INCOMPLETE origin. The policy is stack-language source. *)

val withdraw : t -> Ipv4net.t -> unit

val peer_state : t -> Ipv4.t -> Peer_fsm.state option
val peer_addresses : t -> Ipv4.t list
val established_count : t -> int

val route_count : t -> int
(** Post-decision winners. *)

val fold_winners : t -> (Bgp_types.route -> 'a -> 'a) -> 'a -> 'a
(** Fold over the post-decision winner table (prefix order). *)

val ribin_count : t -> Ipv4.t -> int
(** Routes currently stored in one peer's PeerIn. *)

val deletion_stages : t -> Ipv4.t -> int
(** Active background deletion stages on one peer's branch. *)

val cache_violations : t -> string list
(** Violations recorded by all checking-cache stages. *)

val set_import_policies : t -> Ipv4.t -> Policy.program list -> bool
(** Replace a peer's import filter bank; triggers the background
    re-filter pass. Returns false if the peer is unknown. *)

val sever_session : t -> Ipv4.t -> bool
(** Fault injection: silently cut the TCP session with a peer (no close
    notification — only hold timers can detect it). Returns false if
    there is no live endpoint. *)

val fanout_queue_length : t -> int

val inbound_backlog : t -> int
(** Route operations staged across all peers' inbound queues, waiting
    for their background drain tasks. Zero when idle or settled; also
    surfaced as the [bgp.inbound.backlog] gauge. *)

val instance_name : t -> string
val xrl_router : t -> Xrl_router.t
val shutdown : t -> unit

(** {1 Profile points (Figures 10–12)}

    {!create} registers these {!Telemetry.Profile} points under the
    ambient telemetry namespace. *)

val pp_entering : string
(** ["bgp_in"] — UPDATE entering BGP. *)

val pp_queued_rib : string
(** ["bgp_queued_rib"] — winner queued for transmission to the RIB
    ({!Rib_client}'s [<class>_queued_rib] for class ["bgp"]). *)

val pp_sent_rib : string
(** ["bgp_sent_rib"] — sent to the RIB ([<class>_sent_rib]). *)
