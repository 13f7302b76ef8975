(** Per-component XRL endpoint: registration, dispatch, and sending.

    Every camlXORP component (BGP, the RIB, the FEA, ...) owns one
    [Xrl_router.t]. It instantiates the component's protocol-family
    listeners, registers the component and its methods with the
    {!Finder}, dispatches inbound calls to handlers (enforcing the
    per-method random key of §7), and sends outbound XRLs — resolving
    through the Finder with a resolution cache that the Finder
    invalidates when registrations change.

    {b Reliability.} Outbound calls can carry a caller-side deadline
    and a bounded-retry policy ({!send}'s [?deadline] and [?retry]).
    Every call settles its callback {e exactly once} no matter how
    replies, timers, peer deaths, and shutdown race; late replies are
    dropped and counted ([xrl.late_replies_dropped]). The router also
    watches the Finder lifetime notifications (§6.5) for every class it
    has a sender towards: when a peer dies, that peer's queued and
    in-flight calls fail promptly (or retry against the restarted
    instance), and the stale sender is evicted so a rebirth at a new
    address is re-resolved. Components follow the lifetime of the
    peers they depend on with {!watch_peer}, and nothing else. *)

type t

type handler =
  Xrl_atom.t list -> (Xrl_error.t -> Xrl_atom.t list -> unit) -> unit
(** A method implementation. It receives the request atoms and a reply
    continuation that must be called exactly once; replies may be
    immediate or deferred (asynchronous messaging, §6). Raising
    {!Xrl_atom.Bad_args} replies with a [Bad_args] error. *)

type retry = {
  max_attempts : int;     (** total attempts, including the first *)
  base_delay : float;     (** backoff before attempt 2, seconds *)
  max_delay : float;      (** cap on the exponential backoff *)
  jitter : float;         (** proportional jitter, e.g. [0.25] = +0..25% *)
  attempt_timeout : float option;
      (** per-attempt reply timeout; an expiry counts as a transient
          failure of that attempt (retried), unlike the overall
          [?deadline] which settles the call for good *)
}
(** Bounded retry with exponential backoff, for {e idempotent} calls
    only — a retried call may execute twice on the peer. Retried
    errors: [Resolve_failed] (peer not yet / no longer registered),
    [Send_failed] (transport failure), [No_such_method] (a newborn
    instance is registered at the Finder before it has advertised its
    methods, so a call made in reaction to its birth can land in that
    gap), and attempt-level [Timed_out]. Each retry re-resolves
    through the Finder, so a peer that restarts at a new address is
    found. Retries are counted in [xrl.retries]. *)

val default_retry : retry
(** 4 attempts; 50 ms base backoff doubling to a 2 s cap, 25% jitter;
    2 s per-attempt timeout. *)

val create :
  ?families:Pf.family list -> ?family_pref:string list ->
  Finder.t -> Eventloop.t -> class_name:string -> ?sole:bool -> unit -> t
(** Create a component endpoint of class [class_name]. [families]
    (default: intra-process only) selects which transport listeners to
    instantiate; TCP/UDP families require a [`Real]-mode loop.
    [family_pref] (default intra, then TCP, then UDP) orders transport
    choice when sending. Each call leaves as its own request, in call
    order per destination; callers that move many routes coalesce them
    into one XRL's arguments ({!Route_pack}).
    @raise Failure if [sole] is set and the class is already live. *)

val add_handler :
  t -> interface:string -> ?version:string -> method_name:string ->
  handler -> unit
(** Register a method. Its Finder key is generated here; inbound calls
    whose keyed name does not match are rejected, preventing Finder
    bypass. *)

val send :
  ?deadline:float -> ?retry:retry -> t -> Xrl.t ->
  (Xrl_error.t -> Xrl_atom.t list -> unit) -> unit
(** Send a generic (or already-resolved) XRL; the callback fires
    exactly once with the outcome. Resolution results are cached.

    [?deadline] (seconds) arms a timer: if no settlement happened when
    it fires, the callback fails with {!Xrl_error.Timed_out} (counted
    in [xrl.timeouts]) and any reply arriving later is dropped.

    [?retry] enables bounded retry with backoff for transient errors;
    see {!retry}. The deadline spans all attempts. *)

val watch_peer :
  t -> cls:string -> ?on_death:(unit -> unit) -> ?on_rebirth:(unit -> unit) ->
  unit -> unit
(** Follow the lifetime of component class [cls] (§6.5). [on_death]
    runs when the last live instance dies. [on_rebirth] runs one loop
    turn after an instance is born while none was live, including the
    first birth of a class that was down when the watch began; it is
    skipped if [cls] died again by then or this router shut down, and
    without it no turn is deferred. The two alternate, starting from
    the Finder's state: a watch begun while [cls] is live waits for a
    death, and a birth and a death within one turn call neither.
    {!shutdown} removes the watch. *)

val peer_live : t -> string -> bool
(** Is an instance of the class live? Read from the Finder, without
    allocating, so per-route paths need no flag of their own. *)

val call_blocking :
  ?deadline:float -> ?retry:retry -> t -> Xrl.t ->
  Xrl_error.t * Xrl_atom.t list
(** Testing/scripting convenience: {!send}, then run the event loop
    until the reply arrives. Must not be called from inside a handler.
    [deadline] defaults to 30 s, so a peer that accepts the request but
    never replies yields [(Timed_out _, [])] rather than a hang. *)

val instance_name : t -> string
(** This endpoint's unique Finder instance name, e.g. ["bgp-2"]. *)

val registered_methods : t -> string list
(** Every method id ([interface/version/name]) this endpoint has
    registered with {!add_handler}, sorted. docs/XRL.md is diffed
    against this in the test suite, so the reference cannot drift. *)

val class_name : t -> string
(** The component class passed to {!create}. *)

val finder : t -> Finder.t
(** The broker this endpoint registered with. *)

val eventloop : t -> Eventloop.t
(** The loop dispatch and reply callbacks run on. *)

val pending_sends : t -> int
(** Outbound calls not yet settled. Every deadline expiry, peer death,
    or shutdown settles its calls, so this returns to 0 — it cannot
    leak on the failure paths. *)

val shutdown : t -> unit
(** Unregister from the Finder (including this router's resolution-
    invalidation hook and every lifetime watch it holds), close
    listeners and senders, and settle every unsettled call with
    [Send_failed] in send order. Idempotent. *)
