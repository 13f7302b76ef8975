(** A routing protocol's one client of the RIB ([rib/1.0]).

    The paper's protocols reach the RIB only through its XRL interface
    (§3); this is that reach, shared by BGP, RIP and OSPF so each idea
    below has one implementation:

    - route transfers ([add_route], [delete_route] and the packed
      [add_routes], [delete_routes]) are dropped while no RIB instance
      is live — a reborn RIB starts empty, so a
      skipped delete is moot and the rebirth replays the adds — and
      otherwise sent with {!Xrl_router.default_retry} (transfers into
      the RIB are idempotent);
    - redistribution subscriptions are remembered, because the RIB's
      subscriber table dies with the instance;
    - on a RIB rebirth (§6.5, through the component's one
      {!Xrl_router.watch_peer} on class ["rib"]) every remembered
      subscription is re-sent, then the protocol's [replay] re-announces
      its table, and the count lands in the counter
      [<class>.rib_resync.replayed]. *)

type t

type redist =
  | Add of { net : Ipv4net.t; metric : int; tag : int }
  | Delete of Ipv4net.t
(** A route the RIB redistributes into the protocol
    ([redist_client/1.0/add_route] or [delete_route]). *)

val create :
  Xrl_router.t -> ?resync:bool -> ?on_death:(unit -> unit) ->
  ?redist:(redist -> unit) -> replay:(unit -> int) -> unit -> t
(** Watch the ["rib"] class for the component behind the router.
    [on_death] runs when the last RIB instance dies. On a rebirth the
    remembered subscriptions are re-sent and [replay] is called; it
    re-announces the protocol's table and returns how many routes it
    re-announced, added to [<class>.rib_resync.replayed] where
    [<class>] is the router's class name.

    [resync] (default true) arms that rebirth handling. [false] is the
    deliberately broken variant behind the simulation fuzzer's
    [rib-no-resync] injected bug: no rebirth callback is registered,
    so a reborn RIB never learns what was announced before the death.

    [redist] registers [redist_client/1.0] on the router and receives
    each redistributed route. *)

val add_route :
  t -> protocol:string -> net:Ipv4net.t -> nexthop:Ipv4.t -> metric:int ->
  unit
(** [rib/1.0/add_route]; dropped while no RIB is live. *)

val delete_route : t -> protocol:string -> net:Ipv4net.t -> unit
(** [rib/1.0/delete_route]; dropped while no RIB is live. *)

val add_routes : t -> urgent:bool -> Route_pack.add list -> unit
(** [rib/1.0/add_routes4]: one packed run, each entry naming its
    protocol. [urgent] states the run's lane; the RIB queues the FIB
    changes the run makes in that lane. Dropped while no RIB is
    live. *)

val delete_routes :
  t -> urgent:bool -> protocol:string -> Ipv4net.t list -> unit
(** [rib/1.0/delete_routes4]: one packed run of deletes from one
    protocol's origin table, its lane stated as in {!add_routes}.
    Dropped while no RIB is live. *)

val subscribe_redistribution : t -> policy:string -> unit
(** Ask the RIB to redistribute the routes [policy] (stack-language
    source) accepts to this component ([rib/1.0/redist_subscribe]),
    and remember the policy for the next RIB rebirth. *)
