(** Two-lane (urgent/bulk) work queue with a per-prefix ordering guard
    and per-prefix coalescing.

    Lets fresh updates (a route flap) overtake a bulk table-load
    backlog while preserving per-prefix FIFO order: an urgent push for
    a prefix that still has bulk-lane entries pending is demoted to the
    bulk lane so it cannot overtake older work for its own prefix — the
    paper's §5.1.2 deletion-vs-re-add discipline, enforced across
    lanes.

    The guard holds only if every drain takes the urgent lane dry
    before any bulk entry, so that is the one way out: {!drain}. Under
    it, per-prefix push order is preserved while urgent entries for
    {e other} prefixes bypass the bulk backlog.

    {2 Coalescing and the bound}

    A {!push} with [~merge] offers the new entry to the newest entry
    already pending for the same prefix in the same lane (after any
    demotion). The merge folds the two into one entry, which keeps the
    pending entry's place; cancels both; or refuses, and the new entry
    queues behind the pending one. So per prefix, order within a lane
    and the demotion guard are as without coalescing; only the order
    {e across} prefixes changes, by entries keeping their first place.

    The bound follows from the merge. Where it never refuses, a queue
    holds at most one entry per prefix and lane. A merge that refuses
    only entries for different receivers (BGP's RIB queue refuses an
    entry for the other of its two RIB origin tables) holds at most one
    entry per prefix, lane and receiver, provided each receiver's
    stream is well formed: a delete or replace only of what that
    receiver holds, an add only where it holds nothing. Cancelled
    entries take no part in {!length} and are dropped by the drain
    that passes them, or sooner by a compaction once they outnumber
    live entries by more than 64. *)

type lane = Urgent | Bulk

type 'a t

val create : ?ordered:bool -> unit -> 'a t
(** [ordered] (default [true]) enables the per-prefix demotion guard.
    [ordered:false] is the deliberately broken variant used for
    fuzzer-teeth bug injection; never use it in production paths. *)

(** What a merge makes of a pending entry and a new one. *)
type 'a merge =
  | Merged of 'a  (** one entry, in the pending entry's place *)
  | Cancelled  (** neither: the pair has no net effect *)
  | Refused  (** both: the new entry queues behind the pending one *)

val push : ?merge:('a -> 'a -> 'a merge) -> 'a t -> lane -> net:Ipv4net.t -> 'a -> unit
(** Enqueue on the given lane. An [Urgent] push is silently demoted to
    [Bulk] when [net] has entries pending in the bulk lane (and the
    queue is [ordered]). With [merge], [merge pending v] decides first,
    where [pending] is the newest entry for [net] in that lane. *)

(** {2 Route changes}

    The entries of the BGP->RIB and RIB->FEA queues, whose receiver
    holds at most one route per prefix (per origin table, in the RIB). *)

type change =
  | Add  (** where the receiver holds nothing for the prefix *)
  | Replace  (** over the route the receiver holds; sent as an add *)
  | Delete  (** of the route the receiver holds *)

val merge_changes :
  ?compatible:('r -> 'r -> bool) ->
  change * 'r * 'x -> change * 'r * 'x -> (change * 'r * 'x) merge
(** A [merge] for [(change, route, extra)] entries: the one change with
    the effect of the pending one then the new one, carrying the newer
    route and extra. A Delete then an Add is a Replace; an Add then a
    Delete cancels; a Replace then a Delete is a Delete; an Add then a
    Replace is an Add. Refuses when [compatible pending_route new_route]
    is false (default: always compatible). *)

val drain : 'a t -> bulk_slice:int -> 'a list * 'a list
(** [(urgent, bulk)]: the whole urgent lane, then at most [bulk_slice]
    bulk entries, each list in push order. Send [urgent] before
    [bulk]. *)

val drain_runs :
  'a t -> bulk_slice:int -> same:('a -> 'a -> bool) ->
  (lane -> 'a list -> unit) -> unit
(** {!drain}, then [send lane run] for each maximal run of neighbours
    that [same] groups: the urgent lane's runs first, then the bulk
    slice's, each run in push order and never mixing lanes. A change
    that [same] parts from its neighbour starts a new run, so every
    entry leaves in the order {!drain} gives it. *)

val mem : 'a t -> lane -> Ipv4net.t -> bool
(** Has [net] an entry pending in [lane]? *)

val to_list : 'a t -> lane -> (Ipv4net.t * 'a) list
(** The entries pending in [lane], oldest first, without draining
    them. *)

val length : 'a t -> int
val urgent_length : 'a t -> int
val bulk_length : 'a t -> int
val is_empty : 'a t -> bool

val peak_length : 'a t -> int
(** High-water mark of {!length} since creation (survives {!clear}). *)

val demoted : 'a t -> int
(** Urgent pushes demoted to the bulk lane by the ordering guard. *)

val clear : 'a t -> unit
