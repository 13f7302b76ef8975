(** Two-lane (urgent/bulk) work queue with a per-prefix ordering guard.

    Lets fresh updates (a route flap) overtake a bulk table-load
    backlog while preserving per-prefix FIFO order: an urgent push for
    a prefix that still has bulk-lane entries pending is demoted to the
    bulk lane so it cannot overtake older work for its own prefix — the
    paper's §5.1.2 deletion-vs-re-add discipline, enforced across
    lanes.

    The guard holds only if every drain takes the urgent lane dry
    before any bulk entry, so that is the one way out: {!drain}. Under
    it, per-prefix push order is preserved while urgent entries for
    {e other} prefixes bypass the bulk backlog. *)

type lane = Urgent | Bulk

val lane_name : lane -> string
(** ["urgent"] / ["bulk"] — for telemetry gauge names and logs. *)

type 'a t

val create : ?ordered:bool -> unit -> 'a t
(** [ordered] (default [true]) enables the per-prefix demotion guard.
    [ordered:false] is the deliberately broken variant used for
    fuzzer-teeth bug injection; never use it in production paths. *)

val push : 'a t -> lane -> net:Ipv4net.t -> 'a -> unit
(** Enqueue on the given lane. An [Urgent] push is silently demoted to
    [Bulk] when [net] has entries pending in the bulk lane (and the
    queue is [ordered]). *)

val drain : 'a t -> bulk_slice:int -> 'a list * 'a list
(** [(urgent, bulk)]: the whole urgent lane, then at most [bulk_slice]
    bulk entries, each list in push order. Send [urgent] before
    [bulk]. *)

val length : 'a t -> int
val urgent_length : 'a t -> int
val bulk_length : 'a t -> int
val is_empty : 'a t -> bool

val peak_length : 'a t -> int
(** High-water mark of {!length} since creation (survives {!clear}). *)

val demoted : 'a t -> int
(** Urgent pushes demoted to the bulk lane by the ordering guard. *)

val clear : 'a t -> unit
