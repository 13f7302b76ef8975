(** Thread-safe two-lane mailbox — the cross-domain message primitive.

    A {!Laneq.t} (urgent/bulk lanes with the §5.1.2 per-prefix ordering
    guard) wrapped in a mutex + condition variable so that producers on
    any domain can hand work to a consumer on another domain. This is
    the {e only} sanctioned way route state crosses a domain boundary:
    values are moved by message, never shared (see docs/CONCURRENCY.md).

    Ordering contract: per lane, messages are delivered FIFO; a drain
    empties the urgent lane before taking from the bulk lane, and the
    per-prefix guard demotes urgent pushes that would overtake pending
    bulk work for the same prefix — so per-prefix FIFO holds end to end
    exactly as it does for the single-domain queues.

    Values pushed through a mailbox must be immutable (or never touched
    again by the producer); the mailbox passes them by reference, it
    does not copy. *)

type 'a t
(** A mailbox carrying values of type ['a]. Multiple producers, any
    number of consumers (in practice one). *)

val create : ?ordered:bool -> ?on_wakeup:(unit -> unit) -> unit -> 'a t
(** [create ()] makes an empty open mailbox.

    [ordered] (default [true]) enables the per-prefix demotion guard of
    the underlying {!Laneq.t}.

    [on_wakeup] is invoked — on the {e producer's} domain, outside the
    mailbox lock — whenever a push finds the mailbox empty, i.e. on
    every empty-to-non-empty transition. A consumer that drains the
    mailbox to empty before going idle therefore never misses a wakeup.
    The intended use is [Eventloop.post] to nudge a consumer event
    loop; the callback must itself be thread-safe. *)

val push : 'a t -> Laneq.lane -> net:Ipv4net.t -> 'a -> unit
(** Enqueue on the given lane, keyed by [net] for the per-prefix guard.
    Signals any consumer blocked in {!drain_wait} and fires [on_wakeup]
    when the mailbox was empty. Pushes to a closed mailbox are silently
    dropped. *)

val push_fence : 'a t -> Laneq.lane -> 'a -> unit
(** Enqueue a message that no later push overtakes, whatever its
    prefix — for broadcasts that every prefix's work must see in order
    (a shard's peer table, its reset and replay). While a fence waits
    in the bulk lane, every urgent push is demoted behind it; an
    urgent-lane fence needs no help, since later pushes queue behind it
    or in the bulk lane, which drains after it. Unlike the per-prefix
    guard, this is explicit: a plain {!push} keyed on [0.0.0.0/0] is
    an ordinary route and holds back nothing else. *)

val drain : ?bulk_slice:int -> 'a t -> (Laneq.lane * 'a) list
(** Non-blocking drain: returns the whole urgent lane (in FIFO order)
    followed by at most [bulk_slice] bulk entries (default: all of
    them), tagged with the lane each was delivered from. Returns [[]]
    when the mailbox is empty. *)

val drain_wait : ?timeout_s:float -> ?bulk_slice:int -> 'a t ->
  (Laneq.lane * 'a) list
(** Like {!drain}, but blocks the calling domain until the mailbox is
    non-empty or closed. Returns [[]] only when the mailbox is closed
    and empty, or when [timeout_s] (if given) elapses first — the shard
    worker's "sleep until there is work or we are shutting down" call. *)

val length : 'a t -> int
(** Messages currently queued (both lanes). *)

val is_empty : 'a t -> bool

val demoted : 'a t -> int
(** Urgent pushes demoted to the bulk lane by the per-prefix guard
    since creation (monotonic; telemetry and tests). *)

val close : 'a t -> unit
(** Close the mailbox: subsequent pushes are dropped, blocked
    {!drain_wait} calls return (after delivering anything still
    queued). Idempotent. *)

val is_closed : 'a t -> bool
