(** The forwarding table (FIB) behind the FEA — our stand-in for the
    kernel forwarding plane. Pure data structure; the {!Fea} component
    wraps it with an XRL interface and profile points.

    The table is compiled for lookup, in the manner of DXR (Zec, Rizzo
    and Mikuc, CCR 2012), rather than kept as a pointer-linked trie:

    - {b Layout.} A prefix of length /16 or more lives in the block of
      the /16 it falls in: one array sorted by (network, length), each
      key packed into one int with the index of its nearest enclosing
      key in the block. Blocks hang off a 256-slot directory indexed by
      /8; a /8's 256-block second level is allocated when the first
      prefix lands under it and freed when the last leaves. The few
      prefixes shorter than /16 stay in a {!Ptree}.
    - {b Lookup.} Two array indexations reach the block, a binary
      search finds the last key at or before the address, and at most
      17 parent steps find the longest match. Only when no block
      prefix matches does it walk the trie, which holds just the
      prefixes shorter than /16.
    - {b Write cost.} {!add} and {!delete} rewrite exactly one block,
      O(prefixes in that /16); a short prefix costs one trie update.
      There is no deferred rebuild: every write is visible to the next
      lookup.
    - {b Memory.} The routes, plus one 256-slot table per occupied /8
      and the 256-slot directory: about 275 words empty and about
      1,600 words for 79 routes in two /16s. On the full 146,515-route
      table the index costs about 4.4 words per route beyond the
      entries themselves, against about 25 as a trie. *)

type entry = {
  net : Ipv4net.t;
  nexthop : Ipv4.t;
  ifname : string;
  protocol : string; (** Which protocol installed it (diagnostics). *)
}

type t

val create : unit -> t

val add : t -> entry -> unit
(** Insert or overwrite the entry for [entry.net]. *)

val delete : t -> Ipv4net.t -> bool
(** [true] if an entry was present. *)

val lookup : t -> Ipv4.t -> entry option
(** Longest-prefix-match forwarding decision. Lookups are not counted
    here: the FIB has several consumers (the control plane's
    [lookup_route4], the data plane's [LpmLookup]) and conflating their
    load was misleading — each consumer counts its own calls in
    telemetry ([fea.lookups.control], [fea.lookups.dataplane], and the
    per-element [dataplane.*] counters). *)

val get : t -> Ipv4net.t -> entry option
(** Exact-match fetch. *)

val size : t -> int
val entries : t -> entry list
(** Every entry, ordered by (network, length) as {!Ipv4net.compare}
    orders prefixes. *)

