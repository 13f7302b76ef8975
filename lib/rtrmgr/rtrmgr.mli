(** The Router Manager: boots a complete router from a configuration
    file (paper §3).

    "The Router Manager holds the router configuration and starts,
    configures, and stops protocols and other router functionality. It
    hides the router's internal structure from the user, providing
    operators with unified management interfaces."

    [boot] parses and validates the configuration against the
    {!Template.builtin} schema, then instantiates components in
    dependency order — FEA, RIB, then protocols — on one event loop and
    simulated network, wiring everything through a Finder. The [show_*]
    operator commands render unified views without exposing which
    component owns what.

    Policy program attributes ([import-policy], [redistribute], ...)
    hold stack-language source with [;] standing in for newlines. *)

type t

type component = [ `Fea | `Rib | `Bgp | `Rip | `Ospf ]

val components : component list
(** Every component, in boot (dependency) order. *)

val component_name : component -> string
(** ["fea"], ["rib"], ["bgp"], ["rip"] or ["ospf"]. *)

(** Creation-time settings the simulation harness varies; a production
    router boots with {!default_knobs}. Each [false] below is one of
    the fuzzer's deliberately broken variants. *)
type knobs = {
  fea_rebirth_replay : bool;
  (** {!Rib.create}'s [fea_rebirth_replay] ([rib-no-replay]). *)
  rib_resync : bool;
  (** Every protocol's [rib_rebirth_resync] ([rib-no-resync]). *)
  bgp_lane_ordered : bool;
  (** {!Bgp_process.create}'s [lane_ordered] ([lane-reorder]). *)
  bgp_redump : bool;
  (** {!Bgp_process.create}'s [redump_on_reestablish]
      ([mesh-partition-heal]). *)
  bgp_inbound_slice : int option;
  bgp_urgent_threshold : int option;
  (** {!Bgp_process.create}'s [inbound_slice] and [urgent_threshold];
      [None] keeps the process defaults. *)
  bgp_deletion_slice : int option;
  (** Every configured peer's [deletion_slice]; [None] keeps the
      {!Bgp_process.default_peer_config} value. *)
  dataplane : (string list -> string) option;
  (** The FEA's element-graph configuration, given the router's
      interface names; [None] is the default forwarding path. *)
}

val default_knobs : knobs
(** Every recovery path on, process default slices, default data
    plane. *)

val boot :
  ?loop:Eventloop.t -> ?netsim:Netsim.t -> ?finder:Finder.t ->
  ?families:Pf.family list -> ?knobs:knobs ->
  config:string -> unit -> (t, string list) result
(** Build and start a router. Default loop is a fresh simulated-clock
    loop. On [Error], nothing is left running.

    [families] selects the XRL transports of every component the boot
    creates (default: intra-process); the simulation harness passes a
    per-router chaos-wrapped {!Pf_sim} family. [knobs] (default
    {!default_knobs}) reaches every component the boot creates.

    The ambient {!Telemetry.current_namespace} at boot time is
    captured, so a multi-router process that boots each router under
    its own namespace gets per-router metrics, and
    {!restart_component} rebuilds components under the same
    namespace. *)

val eventloop : t -> Eventloop.t
val netsim : t -> Netsim.t
val finder : t -> Finder.t

val fea : t -> Fea.t
val rib : t -> Rib.t
(** @raise Failure if the component has been killed
    ({!kill_component}) and not restarted. *)

val fea_opt : t -> Fea.t option
val rib_opt : t -> Rib.t option
val bgp : t -> Bgp_process.t option
val rip : t -> Rip_process.t option
val ospf : t -> Ospf_process.t option
(** [None] when the protocol is not configured {e or} its component is
    currently killed. *)

val kill_component : t -> component -> unit
(** Shut the component down in place (clean shutdown: it deregisters
    from the Finder and closes its XRL endpoints). No-op if already
    down, or for a protocol the configuration never started. *)

val restart_component : t -> component -> unit
(** Rebuild the component from the booted configuration, exactly as
    {!boot} did (same XRL families, knobs and telemetry namespace).
    No-op if it is already running or was never configured. *)

val telemetry_router : t -> Xrl_router.t
(** The sole router serving the [telemetry/0.1] XRL interface.
    Telemetry is enabled on boot unless the configuration says
    [telemetry { enabled: false }]. *)

val config_text : t -> string
(** The booted configuration, re-rendered. *)

(** {1 Operator commands} *)

val show_routes : t -> string
(** The RIB's winning routes, one per line. *)

val show_fib : t -> string
val show_bgp_peers : t -> string
val show_rip : t -> string
val show_ospf : t -> string

val show_dataplane : t -> string
(** The FEA's element graph (canonical config form) plus per-element
    rx/tx/drop counters; a note when no data plane is running. *)

val show_telemetry : t -> string
(** Counters, gauges, latency histograms (count/p50/p90/p99/max) and
    the span-ring occupancy, rendered as aligned text tables. *)

val show_queues : t -> string
(** The control-plane pipeline's staging queues and priority lanes:
    the BGP inbound backlog, the fanout/RibOut urgent/bulk lane
    depths, and the two route outboxes (BGP's [bgp.rib_q] towards the
    RIB, the RIB's [rib.fea_q] towards the FEA). During a full-table
    load the bulk figures swell while the urgent lanes stay near
    zero — the visible signature of the head-of-line fix. *)

val is_queue_gauge : string -> bool
(** Does the telemetry metric [name] gauge one of those queues? A dot-
    separated part of the name is [lane] (a fanout or RibOut lane),
    [backlog] (BGP's inbound staging), [rib_q] or [fea_q] (a route
    outbox). The rule behind {!show_queues} and xorp_top's QUEUES
    pane. *)

val shutdown : t -> unit
