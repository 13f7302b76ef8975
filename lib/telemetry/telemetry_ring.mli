(** Bounded ring buffer of boxed records, used for profile records.
    Trace spans keep the same discipline in flat int and float slots
    inside {!Telemetry}, so recording one allocates nothing.

    A ring never grows: once [capacity] entries are live, each push
    overwrites the oldest entry. Pushing is O(1) with no allocation
    beyond the pushed value itself, so rings are safe to leave in
    production hot paths — the property the flat list in the old
    profiler lacked. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Live entries, at most [capacity]. *)

val total_pushed : 'a t -> int
(** Lifetime pushes, including entries since overwritten or cleared. *)

val push : 'a t -> 'a -> unit

val clear : 'a t -> unit
(** Drop live entries ([total_pushed] keeps counting). *)

val to_list : 'a t -> 'a list
(** Live entries, oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first. *)
