(** Cross-component telemetry: metrics, distributed tracing, the
    paper's profile points, and snapshot export.

    - {b metrics}: counters, gauges, and fixed-bucket log-linear
      latency histograms with p50/p90/p99 extraction, registered under
      hierarchical dotted names ([bgp.decision.add_us],
      [xrl.tcp.bytes_tx]);
    - {b tracing}: trace contexts (trace id + span id) carried across
      XRL calls as an extra argument, with completed spans recorded in
      a bounded ring of flat slots;
    - {b profile points} ({!Profile}): the named, runtime-switchable
      per-route points of the paper's §8.2, from which Figures 10–12
      are built, recorded into a second ring of the same flat slots;
    - {b exposure}: a JSON snapshot and a rendered table, served over
      the [telemetry/0.1] XRL interface (see [Telemetry_xrl]) and by
      [xorpsh]'s [show telemetry] / the [xorp_top] binary.

    Everything records into a {e registry}; the default is a single
    process-wide {!global} registry, matching the repo's
    components-in-one-process substitution for XORP's processes.
    Metrics and spans are guarded by one global {!set_enabled} flag so
    instrumentation can stay in production code; the disabled cost is
    a single [ref] read. Enabled, a counter bump is an add, a {!time}d
    stage two clock reads and a bucket update, and a span two clock
    reads and a few int writes into the ring: no span record is
    allocated and no note is formatted until something reads the
    spans. Profile points are switched one by one instead, and cost
    one field read while off. *)

val set_enabled : bool -> unit
(** Default [true]. When disabled, counters, histograms, and spans
    record nothing (registration still works). *)

val is_enabled : unit -> bool

(** {1 Metrics} *)

type counter
type gauge

module Histogram : sig
  (** Fixed-bucket log-linear histogram. Bucket upper bounds run
      1,2,…,9,10,20,…,90,100,… up to 9e8, plus one overflow bucket —
      so any two values in a bucket are within a factor of two, which
      bounds quantile error. Intended unit: microseconds. *)

  type t

  val bucket_count : int
  val bucket_upper_bound : int -> float
  (** Upper bound of bucket [i]; [infinity] for the overflow bucket. *)

  val bucket_index : float -> int
  (** Bucket a value falls into; values [<= 1.0] (including zero and
      negatives) land in bucket 0. *)

  val count : t -> int
  val sum : t -> float
  val max_observed : t -> float
  val counts : t -> int array
  (** Per-bucket counts (a copy). *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0,1]: an upper estimate of the [q]th
      quantile — the upper bound of the bucket holding the rank
      [ceil q*n] value (the max observed value for the overflow
      bucket). [0.0] when empty. The estimate lands in the same bucket
      as the true quantile, so it is at most 2x the true value. *)

  val clear : t -> unit
end

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Histogram.t

type registry

val global : registry
(** The process-wide registry used by all instrumentation. *)

val create_registry : ?span_capacity:int -> unit -> registry
(** A private registry (tests). [span_capacity] defaults to 8192. Its
    profile-point ring holds a fixed 65,536 records. *)

(** {2 Namespaces}

    Instrumented components register fixed hierarchical names
    (["fea.install.latency_us"]). When several router stacks share one
    process — the topology-parametric simulation harness boots N of
    them — an ambient {e namespace} prefix keeps their metrics apart:
    while it is set (e.g. ["r1."]), {!counter}/{!gauge}/{!histogram}
    register under the prefixed name and {!reset_prefix} zeroes only
    the prefixed subtree. The default namespace is [""], which leaves
    every existing caller untouched. Handles are resolved at
    registration time, so a component that creates its metrics under a
    namespace keeps recording there no matter what the ambient
    namespace is later. *)

val set_namespace : string -> unit
val current_namespace : unit -> string

val with_namespace : string -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient namespace set; always restores the
    previous namespace (also on exceptions). *)

(** {2 Registration}

    Get-or-create. Names are hierarchical dotted paths, implicitly
    prefixed by the ambient namespace.
    @raise Invalid_argument if the name exists with another kind. *)

val counter : ?registry:registry -> string -> counter
val gauge : ?registry:registry -> string -> gauge
val histogram : ?registry:registry -> string -> Histogram.t

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : Histogram.t -> float -> unit

val time : Histogram.t -> (unit -> 'a) -> 'a
(** Run the thunk, observing its wall-clock duration in microseconds.
    When telemetry is disabled this is just the call. *)

val find_metric : ?registry:registry -> string -> metric option
val list_metrics : ?registry:registry -> unit -> (string * metric) list
(** Sorted by name. *)

val reset : ?registry:registry -> unit -> unit
(** Zero every metric, drop recorded spans and point records, and zero
    every point's count (registrations and point switches remain). *)

val reset_prefix : ?registry:registry -> string -> unit
(** Zero every metric whose dotted name starts with [prefix] (after
    qualification by the ambient namespace, like registration), in place,
    so existing handles stay valid. Components call this with their
    namespace (e.g. ["fea."]) when a new generation starts, so a
    restarted process does not inherit — and [xorp_top] does not
    display — the dead generation's accumulated counts. *)

(** {1 Distributed tracing} *)

module Trace : sig
  type ctx = { trace_id : int; span_id : int }
  (** Ids are positive; every span gets a fresh span id, and a root
      span a fresh trace id. *)

  (** What a span notes about its work. Recording keeps a note as
      immediates (and a [Text] string as given); it is formatted only
      when a reader asks: {!spans}, {!snapshot_json} and, through them,
      [telemetry/0.1/spans] and [xorp_top]. The text is
      - [Net n]: the prefix, ["10.9.9.0/24"];
      - [Routes n]: ["<n> routes"];
      - [Update (peer, nlri, withdrawn)]: ["<peer> +<nlri> -<withdrawn>"];
      - [Text s]: [s];
      and a span without a note reads [""]. *)
  type note =
    | Net of Ipv4net.t
    | Routes of int
    | Update of Ipv4.t * int * int
    | Text of string

  val run_note : ('a -> Ipv4net.t) -> 'a list -> note
  (** The note of a packed run of routes: [Net] and the prefix ([net_of]
      of the one entry) for a run of one, so a single route reads as it
      would on its own, else [Routes] and the count. *)

  type span = {
    sp_trace : int;
    sp_span : int;
    sp_parent : int option; (* parent span id within the same trace *)
    sp_name : string;
    sp_start : float;
    sp_stop : float;
    sp_note : string; (* the note, formatted *)
  }
  (** A finished span as readers see it. *)

  val current : unit -> ctx option
  (** The ambient context of the code currently running, if any. *)

  val with_ctx : ctx option -> (unit -> 'a) -> 'a
  (** Run the thunk with the given ambient context; always restores
      the previous context (also on exceptions). *)

  val with_ids : trace:int -> span:int -> (unit -> 'a) -> 'a
  (** {!with_ctx} for a context held as two ints, as it arrives off
      the wire; [trace = 0] (whatever [span]) runs the thunk with no
      ambient context. *)

  val span_sync :
    ?registry:registry -> ?note:note -> name:string ->
    clock:(unit -> float) -> (unit -> 'a) -> 'a
  (** Wrap a synchronous computation in a span, the one way to record
      one: the parent is the ambient context (none roots a fresh
      trace), the span is ambient inside the thunk, and it is recorded
      on return (and on exceptions) with start and stop times read
      from [clock] (event-loop clock, so simulated time works).
      Recording writes ints, floats and the caller's strings into
      preallocated slots: it allocates no record and formats nothing.
      When telemetry is disabled this is just the call. *)

  val spans : ?registry:registry -> unit -> span list
  (** Recorded spans, oldest first, notes formatted. At most the
      registry's span capacity are kept; older ones fall off. *)

  val spans_recorded : ?registry:registry -> unit -> int
  (** Lifetime count, including spans that fell off the ring. *)

  val trace_atom_name : string
  (** The reserved XRL argument name carrying a trace context
      ([_xorp_trace]) as a list of two u64s, trace id then span id;
      injected by senders and stripped before dispatch, so method
      handlers never see it. *)
end

(** {1 Profile points}

    The paper's profiling mechanism (§8.2): named points on a route's
    path through the components (BGP's [bgp_in] ... the FEA's
    [fea_kernel]), each switched on and off at runtime. Each component
    resolves its points once, when it is created, under the ambient
    namespace (["r1.fea_kernel"] in a multi-router process). Points
    start off, and an off point costs {!Profile.record} one field read.
    An on point writes four immediates (time, point, verb, prefix) into
    the registry's point ring, whatever {!set_enabled} says: nothing is
    allocated, given a clock that returns a float it already holds (as
    the simulated event loop's does), and no text is formatted until a
    reader asks. The ring keeps the newest 65,536 records and is only
    allocated once a point records. It is apart from the span ring, so
    a table load's records never evict spans; points carry no trace
    context. *)

module Profile : sig
  type verb = Add | Delete

  type point
  (** A resolved point, as a component holds it. *)

  type record = { time : float; point : string; verb : verb; net : Ipv4net.t }
  (** One route change at one point. [point] is the qualified name. *)

  val point : ?registry:registry -> string -> point
  (** Get-or-create the point [name], qualified by the ambient
      namespace. A component re-created under the same namespace gets
      the same point back, switch and count included. *)

  val record : point -> clock:(unit -> float) -> verb -> Ipv4net.t -> unit
  (** [record p ~clock verb net] appends a record stamped [clock ()] if
      [p] is on, and otherwise does nothing. *)

  val enable : ?registry:registry -> string -> unit
  (** Switch on the point with this qualified name.
      @raise Invalid_argument naming the known points if no component
      registered [name]. *)

  val disable : ?registry:registry -> string -> unit
  (** @raise Invalid_argument as {!enable}. *)

  val enable_all : ?registry:registry -> unit -> unit
  val disable_all : ?registry:registry -> unit -> unit

  val list_points : ?registry:registry -> unit -> (string * bool * int) list
  (** [(name, on, records)] sorted by name; the count is lifetime,
      records that fell off the ring included, until {!reset}. *)

  val records : ?registry:registry -> unit -> record list
  (** The ring's records, oldest first, across all points. *)

  val drain : ?registry:registry -> unit -> record list
  (** {!records}, then empty the ring (counts and switches stay), so a
      long measurement can consume records faster than the ring
      overwrites them. *)

  val payload : record -> string
  (** ["add 10.0.1.0/24"] or ["delete 10.0.1.0/24"]. *)

  val to_strings : ?registry:registry -> unit -> string list
  (** Every {!records} in the paper's text,
      ["<point> <seconds> <microseconds> <payload>"], e.g.
      [fea_kernel 1097173928 664085 add 10.0.1.0/24]; the time is
      rounded to the nearest microsecond, carrying into the seconds. *)
end

(** {1 Export} *)

val snapshot_json : ?registry:registry -> unit -> string
(** Every metric plus the recorded spans, as one JSON object:
    [{"metrics": {...}, "spans": [...]}]. *)

val render_table : ?registry:registry -> unit -> string
(** Operator-facing text: counters and gauges, then histograms sorted
    hottest (highest count) first with p50/p90/p99, then span totals. *)
