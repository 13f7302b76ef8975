(** The RIB component: the staged Routing Information Base of paper
    §5.2 (Figure 7), assembled and exposed over XRLs.

    Pipeline (routes flow left to right):

    {v
    connected ─┐
    static  ───┼ merge ─┐
    ospf ──────┼ merge ─┼ merge ──────────── (internal)
    rip ───────┘        │                        │
    ebgp ──┬ merge ─────┴──── (external) ── ExtInt ── Register ── Redist ── sink → FEA
    ibgp ──┘                                                 v}

    Decisions are pairwise administrative-distance comparisons in the
    merge stages; the ExtInt stage additionally gates BGP routes on
    nexthop resolvability; the Register stage answers interest
    registrations (§5.2.1); the Redist stage taps the winner stream for
    policy-filtered redistribution; the sink pushes winners to the FEA
    over XRLs.

    XRL interface [rib/1.0]: [add_route], [delete_route],
    [add_routes4], [delete_routes4], [lookup_route_by_dest], [register_interest], [deregister_interest],
    [redist_subscribe], [redist_unsubscribe], [get_route_count].
    Interest clients must implement
    [rib_client/1.0/route_info_invalid?valid:ipv4net]; redistribution
    subscribers implement [redist_client/1.0/add_route] and
    [delete_route]. *)

type t

val create :
  ?families:Pf.family list ->
  ?send_to_fea:bool ->
  ?fea_rebirth_replay:bool ->
  Finder.t -> Eventloop.t -> unit -> t
(** Registers class ["rib"] (sole) with the Finder. With
    [send_to_fea] (default true), winner changes are pushed to the
    ["fea"] target: changes coalesce in a two-lane transmit queue that
    flushes in bounded deferred slices, each consecutive same-kind run
    (a single route included) leaving as one packed
    [fea/1.0/add_routes4] or [delete_routes4] XRL. A change's lane is
    urgent when it comes from the per-route [add_route] /
    [delete_route] XRLs or the direct API; a packed
    [rib/1.0/add_routes4] or [delete_routes4] run states its own lane
    in its [urgent] argument; a gradual protocol flush and an FEA
    replay are bulk. The RIB watches the ["bgp"], ["rip"] and ["ospf"]
    component classes and gradually flushes their origin tables when
    the last instance dies (Finder lifetime notification, §6.2).

    While no FEA is live, FIB updates are dropped, not held.
    [fea_rebirth_replay] (default true) controls recovery after an FEA
    restart: when true, a reborn FEA receives a full dump of the
    current winners; when false, nothing is re-sent — a deliberately
    faulty mode the simulation harness injects to prove its fuzzer
    catches the resulting RIB/FIB divergence. *)

(** {1 Direct API} (same operations the XRLs expose; examples/tests) *)

val add_route :
  t -> protocol:string -> net:Ipv4net.t -> nexthop:Ipv4.t ->
  ?metric:int -> unit -> (unit, string) result

val delete_route :
  t -> protocol:string -> net:Ipv4net.t -> (unit, string) result

val lookup_best : t -> Ipv4.t -> Rib_route.t option
(** The current winning route for an address, post-arbitration. *)

val route_count : t -> int
(** Number of winning routes (post-arbitration). *)

val register_interest :
  t -> client:string -> Ipv4.t -> Register_table.answer

val deregister_interest : t -> client:string -> Ipv4net.t -> bool

val subscribe_redist :
  t -> name:string -> policy:Policy.program ->
  on_add:(Rib_route.t -> unit) -> on_delete:(Rib_route.t -> unit) -> unit
(** Attach a redistribution subscriber and synchronously dump the
    current winners through its policy filter. *)

val unsubscribe_redist : t -> name:string -> unit

val fold_winners : t -> (Rib_route.t -> 'acc -> 'acc) -> 'acc -> 'acc

val origin_route_count : t -> string -> int
(** Routes currently held by one protocol's origin table. *)

val flush_protocol : t -> string -> unit
(** Begin gradual background deletion of a protocol's routes. *)

val xrl_router : t -> Xrl_router.t
val invalidations_sent : t -> int

val fea_queue_length : t -> int
(** FIB updates queued towards the FEA (both lanes). The RIB→FEA leg
    drains the urgent lane dry each flush and the bulk lane in bounded
    slices, so during a table load this stays non-zero for a while;
    also surfaced as the [rib.fea_q.depth] gauge. *)

val shutdown : t -> unit

(** {1 Profile points (Figures 10–12)}

    {!create} registers these {!Telemetry.Profile} points under the
    ambient telemetry namespace. *)

val pp_arrived : string
(** ["rib_arrived"] — arriving at the RIB. *)

val pp_queued_fea : string
(** ["rib_queued_fea"] — queued for transmission to the FEA. *)

val pp_sent_fea : string
(** ["rib_sent_fea"] — sent to the FEA. *)
