(** A routing protocol's one client of the RIB ([rib/1.0]).

    The paper's protocols reach the RIB only through its XRL interface
    (§3); this is that reach, shared by BGP, RIP and OSPF so each idea
    below has one implementation:

    - route changes queue in one {!Route_runs.outbox} named
      [<class>.rib_q], one entry per prefix, lane and origin table, and
      leave as packed [rib/1.0/add_routes4] and [delete_routes4] runs of
      one origin table each, stating their lane, sent with
      {!Xrl_router.default_retry} (transfers into the RIB are
      idempotent). The queue is dropped while no RIB instance is live:
      a reborn RIB starts empty, so a skipped delete is moot and the
      rebirth replays the adds;
    - redistribution subscriptions are remembered, because the RIB's
      subscriber table dies with the instance;
    - on a RIB rebirth (§6.5, through the component's one
      {!Xrl_router.watch_peer} on class ["rib"]) every remembered
      subscription is re-sent, then the protocol's [replay] re-announces
      its table in the bulk lane, and the count lands in the counter
      [<class>.rib_resync.replayed]. *)

type t

type redist =
  | Add of { net : Ipv4net.t; metric : int; tag : int }
  | Delete of Ipv4net.t
(** A route the RIB redistributes into the protocol
    ([redist_client/1.0/add_route] or [delete_route]). *)

val create :
  Xrl_router.t -> ?ordered:bool -> ?resync:bool ->
  ?redist:(redist -> unit) -> replay:((Route_pack.add -> unit) -> unit) ->
  unit -> t
(** Open the outbox [<class>.rib_q], where [<class>] is the router's
    class name: bulk slice 128, [ordered] as in {!Laneq.create},
    profile points [<class>_queued_rib] and [<class>_sent_rib], send
    span [<class>.rib_send]. Watch the ["rib"] class for the component
    behind the router: when the last RIB instance dies the queue is
    cleared; on a rebirth the remembered subscriptions are re-sent and
    [replay add] is called, where each [add r] queues [r] in the bulk
    lane ({!Route_runs.replay}); the number of routes it added is
    added to [<class>.rib_resync.replayed].

    [resync] (default true) arms that rebirth handling. [false] is the
    deliberately broken variant behind the simulation fuzzer's
    [rib-no-resync] injected bug: no rebirth callback is registered,
    so a reborn RIB never learns what was announced before the death.

    [redist] registers [redist_client/1.0] on the router and receives
    each redistributed route. *)

val push : t -> Laneq.lane -> Laneq.change -> Route_pack.add -> unit
(** Queue one change for the origin table the route names
    ([protocol]); dropped while no RIB is live. The stream for each
    table must be well formed: an [Add] only where the RIB holds
    nothing for the prefix, a [Replace] or [Delete] only of the route
    it holds (see {!Laneq.merge_changes}). *)

val subscribe_redistribution : t -> policy:string -> unit
(** Ask the RIB to redistribute the routes [policy] (stack-language
    source) accepts to this component ([rib/1.0/redist_subscribe]),
    and remember the policy for the next RIB rebirth. *)
