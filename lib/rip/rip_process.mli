(** The RIP component: RIPv2 (RFC 2453) over the FEA's UDP relay.

    Faithful to the paper's sandboxing story (§7): RIP never touches
    the network directly — its datagrams go through the FEA relay
    ({!Fea_relay}), so the process could run fully sandboxed.

    Implements periodic full updates (jittered), route timeout and
    garbage-collection timers, split horizon with poisoned reverse,
    triggered updates with suppression, whole-table and specific
    requests, and route redistribution {e into} RIP from the RIB.
    Live learned routes, and only those, are offered to the RIB
    (protocol ["rip"]): each change is pushed into {!Rib_client}'s
    queue [rip.rib_q] in the urgent lane, and an injected route that
    replaces a learned one withdraws it from the RIB. Every exchange
    with the RIB goes through {!Rib_client}.

    Neighbors are configured explicitly per interface (RIPv2 unicast
    mode): the simulated network has no multicast. *)

type iface = {
  if_addr : Ipv4.t;          (** Local interface address (bound via FEA). *)
  if_neighbors : Ipv4.t list; (** RIP routers reachable on this interface. *)
}

type config = {
  ifaces : iface list;
  update_interval : float;   (** Default 30 s, jittered ±5 s. *)
  timeout : float;           (** Route expiry, default 180 s. *)
  gc_time : float;           (** Garbage collection, default 120 s. *)
  triggered_delay : float;   (** Triggered-update suppression, default 1 s. *)
}

val default_config : ifaces:iface list -> config

type t

val create :
  ?families:Pf.family list ->
  ?rib_rebirth_resync:bool ->
  Finder.t -> Eventloop.t -> config -> t
(** Registers component class ["rip"]. [families] selects the XRL
    transports of the component's endpoint (default: intra-process; the
    simulation harness passes a chaos-wrapped family). Update jitter
    is drawn from a fixed seed, so schedules are deterministic.

    The relay sockets follow the FEA's lifetime as {!Fea_relay}
    describes; each (re)opened socket solicits its neighbours' tables.

    [rib_rebirth_resync] (default true) is {!Rib_client.create}'s
    [resync]: on a RIB rebirth the redistribution subscriptions are
    re-sent and every live learned route is replayed, counted in
    [rip.rib_resync.replayed]. [false] is the deliberately broken
    variant behind the simulation fuzzer's [rib-no-resync] injected
    bug. *)

val start : t -> unit
(** Open FEA sockets, solicit neighbours' tables, start the periodic
    update timer. *)

val inject : t -> net:Ipv4net.t -> ?metric:int -> ?tag:int -> unit -> unit
(** Originate a route into RIP locally (metric defaults to 1). Also
    reachable over XRL [rip/1.0/add_static_route]. *)

val retract : t -> Ipv4net.t -> unit
(** Withdraw a locally originated route (advertised as metric 16). *)

val subscribe_rib_redistribution : t -> policy:string -> unit
(** Ask the RIB to redistribute matching routes into RIP
    ({!Rib_client.subscribe_redistribution}). *)

val route_count : t -> int
(** Live (metric < 16) routes in the RIP database. *)

val lookup : t -> Ipv4net.t -> (int * Ipv4.t) option
(** [(metric, nexthop)] for an exact prefix, if live. *)

val routes : t -> (Ipv4net.t * int * Ipv4.t) list
(** All live routes: (net, metric, nexthop). *)

val updates_sent : t -> int
val updates_received : t -> int
val triggered_updates_sent : t -> int
val routes_expired : t -> int

val shutdown : t -> unit

val xrl_router : t -> Xrl_router.t
(** The component's XRL endpoint (e.g. to inspect registrations). *)
