(** Fault-injection wrapper around any protocol family (tests only).

    [wrap] decorates a family's senders so each outbound request rolls
    a seeded RNG and may be dropped (black-holed: no reply, ever),
    failed (a deferred [Send_failed]), delayed (reply delivery pushed
    by a fixed + jittered interval), or duplicated (reply delivered
    twice, one event-loop turn apart). Listeners pass through
    untouched, and the family keeps the inner family's name, so a
    chaos-wrapped transport is indistinguishable to the Finder and the
    router — which is the point: it exercises {!Xrl_router}'s
    deadlines, retries, and settle-once guarantee, and component-level
    recovery, over an unreliable network that replays deterministically
    from its seed.

    Injections are counted in [xrl.chaos.drops] / [.failures] /
    [.dups] / [.delayed]. *)

type config = {
  mutable drop_prob : float;    (** request black-holed *)
  mutable fail_prob : float;    (** request fails with [Send_failed] *)
  mutable dup_prob : float;     (** reply delivered a second time *)
  mutable delay : float;        (** fixed reply delay, seconds *)
  mutable delay_jitter : float; (** extra uniform [0, jitter) delay *)
}
(** Fields are mutable so a test can turn faults on and off mid-run
    (e.g. chaos while a component is being killed, quiescence while
    checking convergence). *)

val config :
  ?drop_prob:float -> ?fail_prob:float -> ?dup_prob:float ->
  ?delay:float -> ?delay_jitter:float -> unit -> config
(** All probabilities default to [0.] — a freshly wrapped family
    injects nothing until the test dials faults in. *)

val wrap : ?rng:Rng.t -> seed:int -> config:config -> Pf.family -> Pf.family
(** [wrap ~seed ~config fam] returns a family identical to [fam] except
    that every sender injects faults per [config], driven by a
    deterministic per-destination RNG derived from [seed]. Each
    request rolls independently.

    [?rng] overrides the per-destination derivation: all senders then
    draw from that single shared generator. The simulation harness uses
    this to fold transport faults into its master seed stream, so one
    integer determines the whole execution. *)
