(** IPv4 network prefixes ("subnets").

    A prefix is an address plus a mask length; the address is always
    stored in canonical form (host bits zeroed), so structural equality
    coincides with semantic equality. *)

type t = private int
(** An immediate int packing [network lsl 6 lor length]: bits 6..37
    hold the canonical network address and bits 0..5 the prefix length
    (0..32). Integer order on the packed value is therefore (network,
    length) order, the same order as {!compare}, and a prefix costs no
    allocation. Code that needs the packed bits (the prefix trie walks
    on them) reads them with [(n :> int)]; {!make} is the only
    constructor, so every value is canonical. Needs 64-bit ints. *)

val make : Ipv4.t -> int -> t
(** [make addr len] canonicalizes [addr] to [len] bits.
    @raise Invalid_argument unless [0 <= len <= 32]. *)

val network : t -> Ipv4.t
(** Network address (host bits are zero). *)

val prefix_len : t -> int

val netmask : t -> Ipv4.t

val default : t
(** [0.0.0.0/0]. *)

val host : Ipv4.t -> t
(** [/32] prefix covering exactly one address. *)

val of_string : string -> t option
(** Parse ["a.b.c.d/len"], where [len] is one or two ASCII digits with
    a value of 0..32 (no sign, radix prefix or underscore). A bare
    address parses as a /32. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** e.g. ["128.16.0.0/18"]. *)

val contains_addr : t -> Ipv4.t -> bool
(** [contains_addr net a]: does [a] fall inside [net]? *)

val contains : t -> t -> bool
(** [contains outer inner]: is [inner] a subset of (or equal to)
    [outer]? *)

val overlaps : t -> t -> bool
(** True iff one contains the other (IPv4 prefixes either nest or are
    disjoint). *)

val first_addr : t -> Ipv4.t
val last_addr : t -> Ipv4.t

val split : t -> (t * t) option
(** Split into the two half-length-[+1] children; [None] for a /32. *)

val parent : t -> t option
(** The enclosing prefix one bit shorter; [None] for /0. *)

val compare : t -> t -> int
(** Orders by network address, then by prefix length (shorter first),
    so a sorted list groups nested prefixes together. This is integer
    order on the packed representation. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
