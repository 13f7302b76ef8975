(** Deterministic whole-network simulation scenarios.

    A scenario is a seeded fault schedule against a {!Topology.t}: the
    {!Simnet} engine boots every router of the topology from
    configuration through {!Rtrmgr} — FEA, RIB and the router's
    protocols, wired over XRLs on one [`Sim] event loop and one
    {!Netsim} — and the schedule's ops address those routers and
    links by name. The default world, {!classic}, is the paper's
    device under test with its three peers.

    One integer seed fully determines an execution:

    - XRL delivery schedules: every router's components talk over
      {!Pf_sim} with a seeded virtual-latency model, wrapped in
      {!Pf_chaos} whose reply duplication/delay draws come from the
      same master stream;
    - equal-deadline timer tie-breaks ({!Eventloop.set_tie_break});
    - the fault schedule (component kills and restarts, origin and
      link flaps, silent link cuts, injected feed content);
    - injected route content (prefixes drawn from the feed stream).

    After the scripted events, the harness repairs the world (heals
    every link, restarts anything still dead, turns chaos off), runs
    to quiescence, and checks {!Simnet.check_all}'s invariants on
    every router and across the network, then tears down and checks
    for leaked timers and tasks. The {!fuzz} driver explores seeds; on
    a failure it greedily shrinks the fault schedule and the topology
    to a minimal reproducing scenario, printable and re-runnable with
    {!of_string}/{!run}. *)

(** {1 Scenarios} *)

(** The engine's ops, documented at {!Simnet.op}. *)
type op = Simnet.op =
  | Kill of string * Rtrmgr.component
  | Restart of string * Rtrmgr.component
  | Flap of string
  | Inject of string * int
  | Surge of string * int
  | Link_sever of string * string
  | Link_heal of string * string
  | Link_flap of string * string
  | Delay_burst of float
  | Check

type event = { at : float; op : op }

type chaos_levels = Simnet.chaos_levels = {
  dup : float;
  delay : float;
  jitter : float;
}

type scenario = {
  seed : int;               (** master seed: derives every stream *)
  background : chaos_levels; (** chaos active for the whole run *)
  xrl_latency : float;      (** max virtual latency per XRL transmit *)
  events : event list;      (** sorted by time *)
  horizon : float;          (** when repair + final checks begin *)
  topology : Topology.t;    (** the world the events address *)
}

val classic : Topology.t
(** The paper's device under test and its three peers as one
    topology: [dut] (protocols=bgp,rip,ospf) linked to [isp] (bgp),
    [neighbor] (ospf) and [legacy] (rip). *)

val at : float -> op -> event

val scenario :
  ?seed:int -> ?background:chaos_levels -> ?xrl_latency:float ->
  ?horizon:float -> ?topology:Topology.t -> event list -> scenario
(** Events are sorted by time; defaults: seed 0, calm background, no
    extra latency, horizon 120 s, the {!classic} topology. *)

(** {2 Replayable text form} *)

val to_string : scenario -> string
(** A line-oriented form, stable under {!of_string}; this is what the
    fuzzer prints for a shrunk counterexample. The topology's
    {!Topology.to_string} lines ([router ...]/[link ...]) are embedded
    directly in the same document. *)

val of_string : string -> (scenario, string) result
(** A document without [router]/[link]/[topology] lines runs on
    {!classic}. *)

(** {1 Running} *)

type opts = {
  fea_rebirth_replay : bool;
  (** Passed to {!Rib.create}; [false] injects the known-bad recovery
      (held deltas only, no full FIB replay) so the harness can prove
      it catches the divergence. *)
  dataplane_ttl_leak : bool;
  (** [true] installs every element graph with [LeakDecTtl] — a
      DecTtl that decrements but forgets to kill expired packets — so
      the harness can prove the forwarding invariant (element graph
      agrees with {!Fib.lookup}; TTL-expired packets die inside the
      graph, visibly) catches the leak. *)
  bgp_lane_unordered : bool;
  (** [true] creates every BGP with [lane_ordered:false] — the
      priority lanes lose their per-prefix FIFO guard, so an urgent
      withdrawal can overtake the still-queued bulk add of the same
      prefix ([Surge] provokes exactly this race) and BGP and the RIB
      end up disagreeing. The harness must catch the divergence. *)
  rib_resync : bool;
  (** Passed to the protocol processes as [rib_rebirth_resync];
      [false] injects the known-bad recovery (a reborn RIB is marked
      up but no protocol replays its table into it), so after a
      [kill rib]/restart the RIB origin tables stay empty while the
      protocols still hold routes — the per-protocol agreement
      invariant must catch the divergence. *)
  bgp_redump : bool;
  (** Passed to {!Bgp_process} as [redump_on_reestablish]; [false]
      injects the mesh-partition-heal bug — after a cut session
      re-establishes, the winners are never re-dumped, so routes
      withdrawn during the partition stay missing on the far side.
      Only scenarios with link events can expose it. *)
  log_trace : bool;
  (** Also print trace lines to stderr as they happen. *)
}

val default_opts : opts
(** Replay on, no injected bugs, no live trace. *)

type outcome = {
  ran : scenario;
  violations : string list; (** empty = all invariants green *)
  trace : string;           (** byte-identical across runs of the same
                                scenario (same seed, same opts) *)
  sim_time : float;         (** virtual seconds elapsed *)
  dispatched : int;         (** event-loop callbacks dispatched *)
}

val run : ?opts:opts -> scenario -> outcome
(** Spawn the world, play the scenario (converging and checking at
    each [Check]), repair, converge, check invariants, tear down,
    check for leaks.

    [opts] reach every router as {!Rtrmgr.knobs}, together with tiny
    BGP slices (inbound 4, urgent threshold 4, per-peer deletion 20)
    so that even small surges exercise the staged inbound path, both
    priority lanes and sliced deletion. *)

(** {1 Fuzzing} *)

val generate : seed:int -> scenario
(** The seed-indexed family on {!classic}: 0-4 faults (kills and
    restarts at [dut], origin flaps at its three peers, injections and
    surges at [isp], silent [dut]-[isp] severs, delay bursts) at
    seeded times, seeded background chaos and latency. *)

val generate_topo : seed:int -> scenario
(** The topology-parametric family: a {!Topology.generate}d network
    (2-8 routers over all generator shapes) plus 1-4 faults drawn
    against {e that} topology — per-router component kills/restarts,
    link flaps, silent severs with optional heals, delay bursts. *)

type fuzz_result = {
  seeds_run : int;
  failed : (outcome * scenario) option;
  (** On failure: the original failing outcome and the shrunk minimal
      scenario (re-run it with {!run} or print it with
      {!to_string}). *)
  shrink_runs : int; (** extra runs spent shrinking *)
}

val fuzz :
  ?opts:opts -> ?progress:(int -> unit) -> ?topo:bool ->
  base:int -> count:int -> unit -> fuzz_result
(** Run [generate]d scenarios for seeds [base .. base+count-1],
    stopping at the first failure and shrinking it. [progress] is
    called with each seed before it runs. [~topo:true] draws from
    {!generate_topo} instead, fuzzing generated networks. *)

val shrink : ?opts:opts -> scenario -> scenario * int
(** Greedily drop events, then drop routers and links from the
    topology itself (events orphaned by a removed piece become traced
    no-ops and are swept by a final event pass), then zero chaos
    parameters, keeping every mutation that still fails; returns the
    minimal scenario and how many runs were spent. The input must
    fail under [opts]. *)
