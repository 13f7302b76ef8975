(** Both ends of a packed route hand-off: every routing protocol to
    the RIB ([rib/1.0/add_routes4], [delete_routes4], sent by
    {!Rib_client}) and the RIB to the FEA ([fea/1.0/add_routes4],
    [delete_routes4]). The flush policy and the reply contract are
    decided here once; each component supplies only how it sends a run
    and how it applies a route. *)

(** {1 The sender's outbox} *)

type 'r outbox
(** Route changes of type ['r] waiting for one peer class. *)

val outbox :
  ?ordered:bool -> ?same:('r -> 'r -> bool) -> Xrl_router.t -> peer:string ->
  name:string -> bulk_slice:int -> net:('r -> Ipv4net.t) -> queued:string ->
  sent:string -> span:string ->
  (Laneq.lane -> Telemetry.Profile.verb -> 'r list -> unit) -> 'r outbox
(** [outbox router ~peer ~name ~bulk_slice ~net ~queued ~sent ~span
    send] queues changes for the component class [peer] in a two-lane
    {!Laneq} ([ordered] as in {!Laneq.create}). Changes to one prefix
    in one lane fold by {!Laneq.merge_changes} unless [same] (default:
    always true) holds the two routes apart.

    The first {!push} of a turn arms a deferred flush on [router]'s
    loop. A flush drops the queue if no [peer] is live; otherwise it
    takes the urgent lane dry, then at most [bulk_slice] bulk entries
    ({!Laneq.drain}), and calls [send lane verb routes] for each
    maximal run of neighbours of one verb (a replacement is an [Add])
    that [same] groups, in queue order; [routes] is never empty. Each
    call runs in a span named [span], noting
    {!Telemetry.Trace.run_note}, under the trace context of the run's
    first change. Leftovers re-arm the flush for the next turn.

    The profile points [queued] and [sent] record each route as it is
    pushed and as it leaves, and the gauges [<name>.depth],
    [<name>.urgent] and [<name>.bulk] follow the queue. *)

val push : 'r outbox -> Laneq.lane -> Laneq.change -> 'r -> unit
(** Queue one change in the lane, under the ambient trace context;
    dropped while no instance of the peer is live. *)

val replay : 'r outbox -> (('r -> unit) -> unit) -> int
(** [replay ob f] empties the queue and calls [f add]; each [add r]
    queues [r] as an [Add] in the bulk lane, unmerged and without the
    [queued] point. Then the flush is armed if anything is queued, and
    the number of adds is returned. *)

val clear : 'r outbox -> unit
(** Drop every queued change. *)

val length : 'r outbox -> int

(** {1 The receiver's handler} *)

type 'a run
(** The kind of packed run a method carries. *)

val adds : Route_pack.add run
(** [add_routes4], packed by {!Route_pack.pack_adds}. *)

val deletes : Ipv4net.t run
(** [delete_routes4], packed by {!Route_pack.pack_deletes}. *)

val serve :
  ?refused:(int -> int -> string, unit, string) format -> Xrl_router.t ->
  interface:string -> 'a run -> span:string -> arrived:string ->
  (Xrl_atom.t list -> 'a -> bool) -> unit
(** [serve router ~interface run ~span ~arrived apply] registers the
    run's method. A call first reads its other arguments ([apply args]),
    then unpacks [routes], replying [Bad_args] if it does not decode.
    Inside one span named [span], each route is recorded at the profile
    point [arrived] and applied; a route [apply] refuses (false) does
    not stop the run. The reply is [count], the run's length, or
    [Command_failed (Printf.sprintf refused refusals count)] (default
    wording ["%d/%d routes refused"]). *)
