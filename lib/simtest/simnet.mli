(** The simulation engine: N full router stacks from one {!Topology.t}.

    Every simulated world is a topology, and every router in it is
    built the same way: one complete stack — Rtrmgr, FEA, RIB, and
    the protocols its node declares — per topology node, all on one
    virtual clock and one shared {!Netsim}. Each router gets its own
    Finder, its own XRL-plane address ({!Topology.sim_addr}) and its
    own telemetry namespace (["<name>."]), so N stacks coexist in one
    process without metric or registry collisions. {!Simtest} runs
    scenarios on this engine; the [converge] bench and the
    [--topo-boot] determinism gate drive it directly.

    Everything derives from the topology and the master seed: link
    interface addresses, BGP AS numbers and router ids, the one prefix
    each router originates, the per-router chaos streams, the feed
    prefixes that [Inject] and [Surge] draw. Two runs of the same
    seed, topology and ops produce byte-identical traces.

    Generated configurations detect faults inside the convergence
    window: BGP sessions hold for 30 s and redial every 4 s, RIP
    expires silent routes after 40 s, OSPF keeps its 20 s dead
    interval. iBGP nodes get one static /32 per iBGP neighbour so the
    preserved-nexthop routes (nexthop = originator's router id)
    resolve, standing in for the IGP of a real deployment. *)

(** {1 Ops}

    What a scenario does to the world, addressed to routers and links
    by name. *)

type op =
  | Kill of string * Rtrmgr.component
      (** Shut the named router's component down in place. *)
  | Restart of string * Rtrmgr.component
      (** Rebuild it from the router's configuration (no-op if
          alive). *)
  | Flap of string
      (** Withdraw the router's origin prefix from the protocol that
          originates it, re-add it 2 s later. *)
  | Inject of string * int
      (** Originate N fresh prefixes into the router's BGP, drawn
          from the seeded feed stream. *)
  | Surge of string * int
      (** Originate N fresh prefixes into the router's BGP, then, two
          loop iterations later in the same virtual instant, withdraw
          the last one and originate three more, so at each receiver
          the withdrawal chases the surge through the staged inbound
          queue and priority lanes (§5.1.2). *)
  | Link_sever of string * string
      (** Silently cut the link: only hold timers can notice. *)
  | Link_heal of string * string
  | Link_flap of string * string
      (** Reset-cut the link (both ends see it drop), heal 2 s
          later. *)
  | Delay_burst of float
      (** For the given duration, delay and jitter every XRL reply. *)
  | Check
      (** Converge, then check every invariant mid-scenario (driven
          by the scenario runner, not by {!exec}). *)

val op_to_string : op -> string
(** The scenario text form: ["kill dut fea"], ["flap isp"],
    ["sever dut isp"], ... *)

type chaos_levels = {
  dup : float;    (** probability an XRL reply is delivered twice *)
  delay : float;  (** fixed reply delay, seconds *)
  jitter : float; (** extra uniform reply delay, seconds *)
}

val calm : chaos_levels
(** All zeros. *)

(** {1 The world} *)

type t

val spawn :
  ?seed:int -> ?background:chaos_levels -> ?xrl_latency:float ->
  ?knobs:Rtrmgr.knobs -> ?log_trace:bool -> Topology.t -> t
(** Boot every router. [background] (default {!calm}) is the ambient
    XRL chaos, [xrl_latency] (default 0) the maximum virtual latency
    per XRL transmit, [knobs] (default {!Rtrmgr.default_knobs}) goes
    to every router's {!Rtrmgr.boot}, and [log_trace] also prints
    trace lines to stderr as they happen.
    @raise Failure if a generated configuration is rejected (a
    topology bug, not a scenario failure). *)

val eventloop : t -> Eventloop.t

val exec : t -> op -> unit
(** Apply one op now. Unknown router or link names trace a note and
    do nothing — shrinking drops topology pieces out from under
    scheduled ops and the remnant schedule must still run. *)

val converge :
  ?step:float -> ?needed:int -> ?max_steps:int -> t -> bool * float
(** Run virtual time forward until every router's table counts are
    stable for [needed] consecutive samples [step] seconds apart with
    no XRL in flight (or give up after [max_steps] samples, recording
    a violation). Returns convergence and the virtual time of the last
    observed change of {!signature}, which counts established BGP
    sessions too: the instant sessions settle, up to [step]
    resolution. The defaults (9.7 s / 5 / 90) are for pass/fail; the
    benchmark narrows [step] for finer timing. *)

val check_all : t -> tag:string -> unit
(** Every invariant. Per router: RIB/FIB agreement (mirror, stale
    survivors, local nexthop resolution), per-protocol origin counts
    (peer-learned BGP winners against the RIB's ebgp+ibgp origins),
    tx >= rx on the router's own namespaced transport counters, and
    the data plane — probe packets injected through the element graph
    must exit toward the nexthop {!Fib.lookup} dictates, unrouted
    probes must not exit, and TTL-expired probes must die inside the
    graph, counted. Across routers: no XRL in flight and — only when
    no link is cut and every component is up — BGP session counts
    against topology degree, origin-prefix reachability (BGP through
    the iBGP relay rule, RIP/OSPF through connected components),
    cross-router forwarding walks that must terminate at the
    originator without loops, and hop-optimality on pure-eBGP
    topologies. *)

val repair : t -> unit
(** Chaos and latency off, every cut link healed, every component
    restarted. *)

val teardown : t -> unit
(** Shut every router down, drain the loop, and record leaked timers
    or background tasks as violations. *)

val violations : t -> string list
val trace : t -> string
val signature : t -> string
(** Per-router table counts, one token per router — the convergence
    and determinism fingerprint. *)
