(** Deterministic whole-router simulation harness.

    Runs the complete component stack of the paper — BGP, RIP, OSPF,
    the RIB and the FEA, wired over XRLs — inside one simulated world
    (one [`Sim] event loop, one {!Netsim}), surrounded by three peer
    routers (a BGP transit ISP, an OSPF neighbour, a RIP legacy box)
    booted from configuration by {!Rtrmgr}.

    One integer seed fully determines an execution:

    - XRL delivery schedules: the device-under-test's components talk
      over {!Pf_sim} with a seeded virtual-latency model, wrapped in
      {!Pf_chaos} whose reply duplication/delay draws come from the
      same master stream;
    - equal-deadline timer tie-breaks ({!Eventloop.set_tie_break});
    - the fault schedule (component kills via {!Pf_kill} signals,
      restarts, route flaps, silent session cuts, injected feed
      content) — scripted as a {!scenario};
    - injected route content (prefixes drawn from the feed stream).

    After the scripted events, the harness repairs the world (restarts
    anything still dead, turns chaos off), runs to quiescence, and
    checks cross-component invariants: RIB/FIB agreement, per-protocol
    route-count agreement, no forwarding loops, element-graph
    forwarding agreement with [Fib.lookup] (probe packets injected
    through the real data plane must exit toward the nexthop the FIB
    dictates, and TTL-expired probes must die inside the graph,
    counted), no unsettled XRLs, no leaked timers or background tasks
    after teardown, and telemetry consistency. The {!fuzz} driver explores seeds; on a failure it
    greedily shrinks the fault schedule to a minimal reproducing
    scenario, printable and re-runnable with {!of_string}/{!run}. *)

(** {1 Scenarios} *)

type component = C_fea | C_rib | C_bgp | C_rip | C_ospf

type source = S_bgp | S_rip | S_ospf
(** Which routing feed a flap perturbs: a BGP network originated by
    the ISP, a RIP route on the legacy box, an OSPF stub on the
    neighbour. *)

type op =
  | Kill of component      (** TERM signal via the kill family; the
                               component shuts down in place. *)
  | Restart of component   (** Rebuild and start the component (no-op
                               if alive). *)
  | Flap of source         (** Withdraw one route of the feed, re-add
                               it 2 s later. *)
  | Inject of int          (** Originate N fresh prefixes at the ISP,
                               drawn from the seeded feed stream. *)
  | Surge of int           (** Originate N fresh prefixes at the ISP,
                               then withdraw the last one in the same
                               virtual instant (two loop iterations
                               later), so the withdrawal chases the
                               surge through the DUT's staged inbound
                               queue and priority lanes (§5.1.2). *)
  | Sever                  (** Silently cut the DUT-ISP BGP session
                               (only hold timers can detect it). *)
  | Delay_burst of float   (** For the given duration, delay + jitter
                               XRL replies on the DUT's transport. *)
  | Check                  (** Converge, then run the invariant
                               checkers mid-scenario. *)
  | Kill_in of string * component
                           (** Topology worlds: kill the component in
                               the named router. In the fixed world
                               this is a traced no-op. *)
  | Restart_in of string * component
  | Link_sever of string * string
                           (** Topology worlds: silently cut the named
                               link (hold timers must notice). *)
  | Link_heal of string * string
  | Link_flap of string * string
                           (** Topology worlds: reset-cut the link,
                               auto-heal 2 s later. *)

type event = { at : float; op : op }

type chaos_levels = {
  dup : float;    (** probability an XRL reply is delivered twice *)
  delay : float;  (** fixed reply delay, seconds *)
  jitter : float; (** extra uniform reply delay, seconds *)
}

type scenario = {
  seed : int;               (** master seed: derives every stream *)
  background : chaos_levels; (** chaos active for the whole run *)
  xrl_latency : float;      (** max virtual latency per XRL transmit *)
  events : event list;      (** sorted by time *)
  horizon : float;          (** when repair + final checks begin *)
  topology : Topology.t option;
  (** [None] (default): the fixed 3-peer world around one device under
      test. [Some t]: {!Simnet} boots one full router stack per
      topology node instead, and the link/per-router ops above come
      alive. *)
}

val calm : chaos_levels
(** All zeros. *)

(** {2 Combinators} *)

val kill_at : float -> component -> event
val restart_at : float -> component -> event
val flap_at : float -> source -> event
val inject_routes : float -> int -> event
val surge_at : float -> int -> event
val partition : float -> event
(** Silent cut of the DUT-ISP session at the given time ({!Sever}). *)

val delay_burst_at : float -> dur:float -> event
val check_at : float -> event

val kill_in_at : float -> string -> component -> event
val restart_in_at : float -> string -> component -> event
val sever_link_at : float -> string -> string -> event
val heal_link_at : float -> string -> string -> event
val flap_link_at : float -> string -> string -> event

val scenario :
  ?seed:int -> ?background:chaos_levels -> ?xrl_latency:float ->
  ?horizon:float -> ?topology:Topology.t -> event list -> scenario
(** Events are sorted by time; defaults: seed 0, calm background, no
    extra latency, horizon 120 s, no topology (the fixed world). *)

(** {2 Replayable text form} *)

val to_string : scenario -> string
(** A line-oriented form, stable under {!of_string}; this is what the
    fuzzer prints for a shrunk counterexample. Topology scenarios embed
    the {!Topology.to_string} lines ([router ...]/[link ...]) directly
    in the same document. *)

val of_string : string -> (scenario, string) result

(** {1 Running} *)

type opts = {
  fea_rebirth_replay : bool;
  (** Passed to {!Rib.create}; [false] injects the known-bad recovery
      (held deltas only, no full FIB replay) so the harness can prove
      it catches the divergence. *)
  dataplane_ttl_leak : bool;
  (** [true] installs the DUT's element graph with [LeakDecTtl] — a
      DecTtl that decrements but forgets to kill expired packets — so
      the harness can prove the forwarding invariant (element graph
      agrees with {!Fib.lookup}; TTL-expired packets die inside the
      graph, visibly) catches the leak. *)
  bgp_lane_unordered : bool;
  (** [true] creates the DUT's BGP with [lane_ordered:false] — the
      priority lanes lose their per-prefix FIFO guard, so an urgent
      withdrawal can overtake the still-queued bulk add of the same
      prefix ({!Surge} provokes exactly this race) and BGP and the RIB
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
      Only topology scenarios with link events can expose it. *)
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
(** Build the world, play the scenario, repair, converge, check
    invariants, tear down, check for leaks. *)

(** {1 Fuzzing} *)

val generate : seed:int -> scenario
(** The seed-indexed scenario family the fuzzer explores: 0-4 faults
    (kills, restarts, flaps, injections, surges, severs, delay bursts)
    at seeded times, seeded background chaos and latency. *)

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
    {!generate_topo} instead, fuzzing whole networks. *)

val shrink : ?opts:opts -> scenario -> scenario * int
(** Greedily drop events, then — for topology scenarios — drop routers
    and links from the topology itself (events orphaned by a removed
    piece become traced no-ops and are swept by a final event pass),
    then zero chaos parameters, keeping every mutation that still
    fails; returns the minimal scenario and how many runs were spent.
    The input must fail under [opts]. *)
