(** Declarative router topologies for the simulation harness.

    The paper's router is one stack; validating the {e routing system}
    needs many of them wired into networks. A topology is pure data:
    named routers, each with a protocol set, plus undirected links.
    {!Simnet} turns one into N booted router stacks over a shared
    simulated network; the scenario DSL ({!Simtest}) embeds the text
    form; the fuzzer generates, and shrinks, values of {!t} directly.

    {b Text form} — one declaration per line, [#] comments allowed:
    {[
      router r1 protocols=bgp,rip
      router r2 protocols=ibgp
      router r3 protocols=none
      link r1 r2
      topology grid 3x4        # sugar: expands a whole generated shape
    ]}
    Generators available behind [topology]: [chain N],
    [ibgp-fullmesh N], [grid RxC], [mixed N]. {!to_string} always
    prints the expanded canonical form (nodes in declaration order,
    links sorted), so [of_string (to_string t)] is the identity. *)

type bgp_mode = B_off | B_ebgp | B_ibgp

type protos = { bgp : bgp_mode; rip : bool; ospf : bool }

val bgp_only : protos
val ibgp_only : protos
val no_protos : protos

type node = { name : string; protos : protos }

type link = string * string
(** Undirected; stored with the lexicographically smaller name first. *)

type t = private { nodes : node list; links : link list }

val make : nodes:node list -> links:link list -> t
(** Canonicalize: links are normalised, deduplicated, and sorted.
    @raise Invalid_argument on duplicate or malformed router names,
    self-links, or links naming unknown routers. *)

val equal : t -> t -> bool
val size : t -> int

val node : t -> string -> node option
val node_index : t -> string -> int option
(** Position in [nodes]; drives the addressing scheme below. *)

val has_link : t -> link -> bool
val link_index : t -> link -> int option

val drop_node : t -> string -> t
(** Remove a router and every link touching it (shrinking). *)

val drop_link : t -> link -> t

(** {1 Generators}

    All name routers [r1..rN], in index order. *)

val chain : int -> t
(** A line of N eBGP routers (router [i] gets its own AS). *)

val ibgp_fullmesh : int -> t
(** N routers in one AS, full-mesh linked and iBGP-peered. *)

val grid : int -> int -> t
(** [grid rows cols]: an eBGP lattice; router [r*cols + c] sits at
    [(r,c)]. *)

val mixed : int -> t
(** An eBGP core chain with RIP and OSPF edge routers hung off it
    round-robin; a core router attaching a leaf also runs the leaf's
    protocol. *)

val generate : seed:int -> t
(** The seed-indexed family the fuzzer explores: 2–8 routers over all
    generator shapes, plus up to two extra random links between eBGP
    nodes. Deterministic in [seed]. *)

(** {1 Text form} *)

val protos_to_string : protos -> string
(** ["bgp,rip"], ["ibgp"], ..., or ["none"]. *)

val to_string : t -> string
(** Canonical: [of_string (to_string t)] = [Ok t]. *)

val of_string : string -> (t, string) result

(** {1 Addressing}

    Every address in a simulated network derives from node and link
    indices, so a topology fully determines its address plan.
    Disjoint ranges: XRL planes in [10.0.0.0/16], link subnets from
    [10.1.0.0] up, origin prefixes in [198.18.0.0/15] (RFC 2544
    benchmarking space). *)

val sim_addr : int -> Ipv4.t
(** XRL-plane address of router [idx]; also its BGP id and OSPF
    router id. *)

val origin_prefix : int -> Ipv4net.t
(** The one prefix router [idx] originates into its protocols. *)

val link_subnet : int -> Ipv4net.t
(** The /24 owned by link [idx] (its position in [links]). *)

val link_addrs : int -> Ipv4.t * Ipv4.t
(** The two interface addresses on link [idx]: [.1] for the
    lexicographically lower-named end, [.2] for the other. *)
