(** The Forwarding Engine Abstraction component (paper §3).

    Provides a stable XRL API between the control plane and the
    forwarding engine. Two roles, both from the paper:

    - {b FIB manipulation}: routing processes (in practice the RIB)
      install and remove forwarding entries. Each installation crosses
      the "kernel" boundary, recorded at the [fea_kernel] profile point
      — the final latency point of Figures 10–12.
    - {b Network-access relay} (§7): sandboxed routing processes do not
      touch sockets themselves; RIP sends and receives UDP through the
      FEA over XRLs. Here the "network" is a {!Netsim.t}.

    Since this PR the FEA also {e forwards}: it owns a {!Dataplane.t}
    — a Click-style element graph whose [LpmLookup] reads the live
    FIB — plus one datagram socket per interface on {!dataplane_port},
    so packets arriving over the netsim flow through the graph and
    back out. The graph is operator-visible and runtime-mutable over
    the [dataplane/0.1] XRL interface.

    XRL interface [fea/1.0]:
    [add_routes4], [delete_routes4] (packed route runs), [lookup_route4],
    [get_fib_size], [get_interfaces].
    XRL interface [fea_udp/1.0]: [udp_open], [udp_send], [udp_close].
    Clients of the UDP relay must implement
    [fea_client/1.0/recv?sockid:u32&src:ipv4&sport:u32&payload:binary].
    XRL interface [dataplane/0.1]: [install_graph], [get_graph],
    [list_elements], [get_counters], [insert_element],
    [remove_element] (see docs/DATAPLANE.md). *)

type t

val create :
  ?families:Pf.family list ->
  ?interfaces:(string * Ipv4.t) list ->
  ?netsim:Netsim.t ->
  ?dataplane:[ `Default | `Graph of string | `Off ] ->
  Finder.t -> Eventloop.t -> unit -> t
(** Register the FEA (class ["fea"], sole instance) with the Finder.
    [interfaces] lists this router's (ifname, address) pairs; UDP-relay
    sockets bind to these addresses on [netsim]. Without a [netsim],
    the relay methods fail with [Command_failed].

    [dataplane] controls the forwarding path: [`Default] (the default)
    installs {!Dataplane.default_config} over [interfaces] whenever a
    [netsim] and at least one interface are present; [`Graph config]
    installs a custom graph (@raise Failure if it does not parse);
    [`Off] runs without one (the [dataplane/0.1] methods then fail
    with [Command_failed]). *)

val fib : t -> Fib.t
(** Direct access to the forwarding table (tests, benches, examples). *)

val dataplane : t -> Dataplane.t option
(** The running element-graph data plane, if one was set up. *)

val dataplane_port : int
(** UDP port (4) the data plane's per-interface ingress/egress sockets
    use on the netsim — the repo's stand-in for raw IP transport. *)

val xrl_router : t -> Xrl_router.t
val interfaces : t -> (string * Ipv4.t) list

val routes_installed : t -> int
(** Cumulative count of routes installed by [add_routes4]. *)

val shutdown : t -> unit

(** {1 Profile points}

    {!create} registers these {!Telemetry.Profile} points under the
    ambient telemetry namespace. *)

val pp_arrived : string
(** ["fea_arrived"] — update arriving at the FEA. *)

val pp_kernel : string
(** ["fea_kernel"] — "entering the kernel". *)
