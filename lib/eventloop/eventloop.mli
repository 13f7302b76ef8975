(** Single-threaded event loop — the core of the XORP programming model
    (paper §4).

    Everything in camlXORP is event-driven: callbacks are dispatched on
    timer expiry, file-descriptor readiness, and deferred events, and
    events are processed to completion. Long-running work (deleting a
    full routing table, re-filtering after a policy change) runs as a
    {e background task}: a cooperative slice of work invoked only when
    no events are pending, exactly as §4 describes.

    Two clock modes:
    - [`Real]: [now] is wall-clock time ([Unix.gettimeofday]) and idle
      periods block in [select] on registered file descriptors.
    - [`Sim]: [now] is a virtual clock that jumps instantaneously to the
      next timer deadline when the loop is otherwise idle, making long
      experiments (Figure 13's 255 seconds) run in milliseconds and
      fully deterministically.

    A loop and all its timers, tasks and callbacks belong to the one
    domain that creates and runs it. *)

type t

val create : ?mode:[ `Real | `Sim ] -> unit -> t
(** Default mode is [`Sim]; a virtual clock starts at time 0. *)

val mode : t -> [ `Real | `Sim ]

val now : t -> float
(** Current time in seconds: wall-clock ([`Real]) or virtual ([`Sim]). *)

(** {1:timers Timers}

    The timer queue is a binary heap of {e runs}: timers scheduled one
    straight after another with the same deadline share one heap entry
    and fire in scheduling order. Timers fire in (deadline, scheduling
    order) whatever the run structure; a burst of same-deadline timers
    costs one heap operation and O(1) per timer.

    {b Bound.} A cancelled timer stays queued until a sweep passes it or
    a purge drops it. Whenever a {!cancel} leaves more cancelled timers
    queued than [live_timers + 64], it purges them all in one O(n) pass.
    Right after any cancel, then, the queue holds at most
    [2 * live_timers + 64] timers, however often timers are cancelled
    and re-armed; {!queued_timers} reads it. *)

type timer

val at : t -> float -> (unit -> unit) -> timer
(** [at loop time cb] fires [cb] once at absolute [time]. Times in the
    past (or negative) fire {e exactly once, on the next iteration} —
    never synchronously within the current timer sweep, even when
    scheduled from inside another timer's callback, in both [`Real] and
    [`Sim] modes. *)

val after : t -> float -> (unit -> unit) -> timer
(** [after loop delay cb] fires once [delay] seconds from [now]. *)

val periodic : t -> float -> (unit -> bool) -> timer
(** [periodic loop ival cb] fires every [ival] seconds for as long as
    [cb] returns [true]. *)

val cancel : timer -> unit
(** Idempotent; a cancelled timer never fires again. *)

val timer_pending : timer -> bool

(** {1 Deferred events}

    A deferred event runs on the current loop iteration, after events
    already queued — the mechanism components use to schedule work
    "immediately, but not re-entrantly". *)

val defer : t -> (unit -> unit) -> unit

(** {1 Background tasks (§4, §5.1.2)} *)

type task

val add_task : t -> ?weight:int -> (unit -> [ `Continue | `Done ]) -> task
(** [add_task loop f] registers a background task. [f] is called for
    one slice of work whenever the loop has no events to process; it
    returns [`Continue] to be rescheduled or [`Done] to retire. Tasks
    are scheduled round-robin; [weight] (default 1) gives a task that
    many consecutive slices per round. *)

val remove_task : task -> unit
(** Idempotent. The task's [live_tasks] slot is released immediately —
    [live_tasks]/[quiescent] never count removed-but-not-yet-swept
    tasks — though its queue slot is reclaimed lazily. *)

(** {1 File descriptors ([`Real] mode)} *)

val add_reader : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Replaces any previous read callback for the descriptor. *)

val remove_reader : t -> Unix.file_descr -> unit
val add_writer : t -> Unix.file_descr -> (unit -> unit) -> unit
val remove_writer : t -> Unix.file_descr -> unit

(** {1 Running} *)

val run_once : t -> bool
(** One iteration: dispatch deferred events, fire due timers, poll file
    descriptors, else run one background-task slice, else ([`Sim])
    advance the virtual clock to the next deadline. Returns [false]
    when the loop made no progress (fully idle with nothing pending —
    in [`Real] mode after waiting up to 100 ms). *)

val run : ?until:(unit -> bool) -> t -> unit
(** Iterate until [until ()] is true (checked between iterations) or
    the loop is fully idle. *)

val run_until_time : t -> float -> unit
(** Run until [now] reaches the given absolute time. In [`Sim] mode the
    clock never overshoots: it stops exactly at the target even if the
    next timer is later. *)

val run_until_idle : t -> unit
(** Run until no deferred events, no due work and no background tasks
    remain. Pending {e future} timers do not count as work here; this
    drains "everything that can happen now". *)

val stop : t -> unit
(** Make the innermost [run] return after the current iteration. *)

val events_dispatched : t -> int
(** Total callbacks dispatched since creation (tests and benches). *)

(** {1 Determinism and inspection (simulation harness)} *)

val set_tie_break : t -> (int -> int) option -> unit
(** Install (or clear) the equal-deadline tie-break hook. By default,
    timers sharing a deadline fire in the order they were scheduled
    (FIFO). With a hook, each time a batch of [n >= 1] same-deadline
    timers comes due the hook is called with the number of candidates
    still to fire and returns the index (in [0..n-1], out-of-range
    values clamp to 0) of the one to dispatch next. Driving the hook
    from a seeded PRNG explores alternative event orderings while
    keeping every run fully determined by the seed. *)

val live_timers : t -> int
(** Timers scheduled and not yet fired or cancelled (leak checks). *)

val queued_timers : t -> int
(** Timers the queue holds: the pending ones not yet taken for firing
    plus the cancelled ones not yet dropped. See the bound under
    {!section-timers}. *)

val live_tasks : t -> int
(** Background tasks registered and not yet retired. *)

val quiescent : t -> bool
(** No deferred events, no background tasks, and no timer due at the
    current time: nothing can happen until the clock advances. *)
