(** Array-based binary min-heap, used for the event loop's timer queue.

    Entries are compared by a float priority with an insertion sequence
    number as tie-break, so equal-priority entries come out in the
    order they were pushed. Keys sit in flat float and int arrays beside
    the values: {!peek}, {!peek_seq} and {!pop} allocate nothing (a
    caller that needs the priority keeps it in the value, where it is
    boxed once), and every slot a value leaves is overwritten with the
    [dummy] given to {!create}, so the heap never keeps a removed value
    alive. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills vacated slots; it is never returned. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio v] inserts [v] with priority [prio] and the next
    sequence number. O(log n). *)

val stamp : 'a t -> int
(** The insertion counter: every entry pushed from now on has a seq
    [>= stamp h], every entry already inside has a smaller seq. Used by
    the event loop to keep a timer sweep from firing timers that the
    sweep's own callbacks scheduled. *)

val peek : 'a t -> 'a
(** Smallest entry's value. O(1).
    @raise Invalid_argument if the heap is empty. *)

val peek_seq : 'a t -> int
(** Smallest entry's sequence number. O(1).
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> 'a
(** Remove the smallest entry and return its value. O(log n).
    @raise Invalid_argument if the heap is empty. *)

val filter : 'a t -> ('a -> bool) -> unit
(** [filter h keep] drops every entry whose value fails [keep] and
    restores heap order, keeping each survivor's priority and seq.
    O(n). [keep] may mutate the value, but must not touch [h]. Storage
    shrinks once it is more than four times the entries kept. *)
