(** The forwarding table (FIB) behind the FEA — our stand-in for the
    kernel forwarding plane. Pure data structure; the {!Fea} component
    wraps it with an XRL interface and profile points.

    The table is compiled for lookup, in the manner of DXR (Zec, Rizzo
    and Mikuc, CCR 2012), rather than kept as a pointer-linked trie. A
    data-plane lookup reads three things: the /8 directory, one packed
    [int array] of keys for a /16, and a small next-hop table. It reads
    nothing per route.

    - {b Layout.} A prefix of length /16 or more is one int key in the
      array of the /16 it falls in, sorted by (network, length). The key
      packs three fields: the prefix's low 16 network bits and its
      length, the index of its nearest enclosing key in the same array,
      and its slot in the next-hop table. Key arrays hang off a 256-slot
      directory indexed by /8; a /8's 256-array second level is
      allocated when the first prefix lands under it and freed when the
      last leaves. The few prefixes shorter than /16 stay in a {!Ptree}
      whose values are next-hop slots.
    - {b Next-hop table.} One slot per distinct (nexthop, ifname,
      protocol), holding the data plane's precomputed result, which
      every prefix naming that triple shares. Slots are
      reference-counted, freed when their last prefix goes and reused;
      once no slot is live the table shrinks back to its size at
      {!create}. It holds at most 2^24 live slots: an {!add} that needs
      one more raises [Invalid_argument].
    - {b Lookup.} Two array indexations reach the key array, a binary
      search finds the last key at or before the address, and at most
      17 parent steps find the longest match, whose slot indexes the
      next-hop table. Only when no key matches does it walk the trie,
      which holds just the prefixes shorter than /16. {!forward} returns
      the slot's shared result; {!lookup}, {!get} and {!entries} rebuild
      each entry from its key and slot.
    - {b Write cost.} {!add} and {!delete} rewrite exactly one key
      array, O(prefixes in that /16), and look the triple up in a hash
      table keyed by nexthop; a short prefix costs one trie update.
      There is no deferred rebuild: every write is visible to the next
      lookup.
    - {b Memory.} One word per route of /16 or longer, plus one
      256-slot table per occupied /8, the 256-slot directory and the
      next-hop table: 337 words empty and 951 words for 79 routes in
      two /16s. The full 146,515-route table takes 2.05 words per route
      in all (2.3 MB). *)

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
(** Longest-prefix-match forwarding decision, as a fresh entry equal to
    (not the same record as) the one added. Lookups are not counted
    here: the FIB has several consumers (the control plane's
    [lookup_route4], the data plane's [LpmLookup]) and conflating their
    load was misleading — each consumer counts its own calls in
    telemetry ([fea.lookups.control], [fea.lookups.dataplane], and the
    per-element [dataplane.*] counters). *)

val forward : t -> Ipv4.t -> Dataplane.lookup_result option
(** The data plane's longest-prefix match: {!lookup}'s decision as the
    next-hop table's shared, precomputed result ([lr_connected] when
    the protocol is ["connected"]). Allocates nothing when a prefix of
    /16 or longer matches. Not counted, like {!lookup}. *)

val get : t -> Ipv4net.t -> entry option
(** Exact-match fetch. *)

val size : t -> int
val entries : t -> entry list
(** Every entry, ordered by (network, length) as {!Ipv4net.compare}
    orders prefixes. *)

