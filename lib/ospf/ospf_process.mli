(** The link-state routing component ("OSPF-lite").

    The paper lists OSPF support as under development (§4); this is
    that protocol slot filled with a simplified but architecturally
    faithful link-state IGP:

    - hello-based adjacency with a dead interval (a neighbour is usable
      only while its hellos keep arriving {e and} it reports hearing
      us — the two-way check);
    - sequence-numbered router LSAs flooded hop by hop, with periodic
      refresh and origin-death flush;
    - Dijkstra SPF ({!Spf}) over the link-state database, debounced so
      an LSA burst triggers one computation;
    - resulting routes offered to the RIB as protocol ["ospf"]
      (administrative distance 110).

    Like RIP, all datagrams travel through the FEA's UDP relay
    ({!Fea_relay}), so the process remains sandboxable (§7), and every
    exchange with the RIB goes through {!Rib_client}.
    Simplifications versus RFC 2328: no areas, no DR/BDR election, no
    LSAck (reliability by refresh), no aging-based checksum. *)

type neighbor_config = {
  n_addr : Ipv4.t;    (** Neighbour's interface address. *)
  n_id : Ipv4.t;      (** Neighbour's router id. *)
  n_cost : int;       (** Our cost toward it. *)
}

type iface_config = {
  o_addr : Ipv4.t;                 (** Local interface address. *)
  o_neighbors : neighbor_config list;
}

type config = {
  router_id : Ipv4.t;
  ifaces : iface_config list;
  stub_prefixes : (Ipv4net.t * int) list; (** Prefixes this router advertises. *)
  hello_interval : float;          (** Default 5 s. *)
  dead_interval : float;           (** Default 20 s. *)
  refresh_interval : float;        (** LSA re-origination, default 60 s. *)
}

val default_config :
  router_id:Ipv4.t -> ifaces:iface_config list ->
  ?stub_prefixes:(Ipv4net.t * int) list -> unit -> config

type t

val create :
  ?families:Pf.family list ->
  ?rib_rebirth_resync:bool ->
  Finder.t -> Eventloop.t -> config -> t
(** Registers component class ["ospf"]. [families] selects the XRL
    transports of the component's endpoint (default: intra-process; the
    simulation harness passes a chaos-wrapped family).

    The relay sockets follow the FEA's lifetime as {!Fea_relay}
    describes; each (re)opened socket sends hellos at once.

    [rib_rebirth_resync] (default true) is {!Rib_client.create}'s
    [resync]: on a RIB rebirth the installed SPF routes are replayed
    into the reborn (empty) origin table, counted in
    [ospf.rib_resync.replayed]. [false] is the deliberately broken
    variant behind the simulation fuzzer's [rib-no-resync] injected
    bug. *)

val start : t -> unit

val add_stub : t -> Ipv4net.t -> int -> unit
(** Advertise another prefix; floods a new LSA. *)

val remove_stub : t -> Ipv4net.t -> unit

val adjacency_up : t -> Ipv4.t -> bool
(** Is the adjacency with the given router id fully up (two-way)? *)

val lsdb_size : t -> int
val spf_runs : t -> int

val route_table : t -> (Ipv4net.t * int * Ipv4.t) list
(** Current SPF result: (prefix, cost, nexthop interface address);
    excludes our own stubs. *)

val shutdown : t -> unit

val xrl_router : t -> Xrl_router.t
(** The component's XRL endpoint (e.g. to inspect registrations). *)
