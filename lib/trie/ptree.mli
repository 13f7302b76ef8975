(** Patricia (path-compressed binary radix) tree keyed by IPv4
    prefixes — the routing-table store used throughout camlXORP.

    The tree is mutable: routing tables are updated in place while
    background tasks walk them, which is exactly the feature-interaction
    problem §5.3 of the paper solves with {e safe iterators}. Each node
    carries a reference count of iterators currently pointing at it; a
    deleted node whose count is nonzero is emptied but kept in place,
    and the last iterator to leave it performs the physical removal.

    Traversal order is pre-order on the binary trie, i.e. lexicographic
    by (network address, prefix length): a prefix is visited before the
    more-specific prefixes nested inside it.

    Layout: a node is one six-field record holding its key as the
    immediate {!Ipv4net.t} int, its value (an option: glue nodes and
    emptied pinned nodes hold none), its two children, its parent and
    its pin count. A missing child or parent is not an option but the
    tree's own [nil] sentinel node, which is never written. Equality,
    containment, the branch bit and the common prefix are integer
    arithmetic on the packed keys, so a walk down the tree makes no
    cross-module call. *)

type 'a t

val create : unit -> 'a t

val insert : 'a t -> Ipv4net.t -> 'a -> 'a option
(** [insert t net v] binds [net] to [v], returning the previous binding
    if one existed. *)

val remove : 'a t -> Ipv4net.t -> 'a option
(** [remove t net] deletes the binding for [net] and returns it, or
    [None] if absent. The node is physically removed only when no
    iterator points at it. *)

val find : 'a t -> Ipv4net.t -> 'a option
(** Exact-match lookup. *)

val longest_match : 'a t -> Ipv4.t -> (Ipv4net.t * 'a) option
(** Most-specific stored prefix containing the address. *)

val longest_match_net : 'a t -> Ipv4net.t -> (Ipv4net.t * 'a) option
(** Most-specific stored prefix containing the whole given prefix
    (including an exact match). *)

val has_strictly_inside : 'a t -> Ipv4net.t -> bool
(** Does the tree contain a binding whose key is a {e proper} subset of
    [net]? Used by the RIB's interest-registration logic. *)

val largest_enclosing_hole : 'a t -> Ipv4.t -> Ipv4net.t
(** The interest-registration computation of §5.2.1 / Figure 8:
    the largest subnet [s] such that [s] contains the address, [s] is
    within the longest-match route for the address (or within /0 if
    there is none), and no strictly more-specific route overlaps [s].
    Clients may cache the longest-match answer for every address
    in [s]. *)

val size : 'a t -> int
(** Number of bindings (O(1)). *)

val containing : 'a t -> Ipv4net.t -> (Ipv4net.t * 'a) list
(** All bindings whose key contains the given prefix (including an
    exact match), least-specific first. O(key length). *)

val fold_within :
  'a t -> Ipv4net.t -> (Ipv4net.t -> 'a -> 'acc -> 'acc) -> 'acc -> 'acc
(** Fold over bindings whose key is a subset of (or equal to) the given
    prefix, in pre-order. *)

val iter : (Ipv4net.t -> 'a -> unit) -> 'a t -> unit
(** Pre-order iteration over bindings. The tree must not be modified
    during [iter]; use {!Safe_iter} when it might be. *)

val fold : (Ipv4net.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val to_list : 'a t -> (Ipv4net.t * 'a) list
val clear : 'a t -> unit
(** Remove every binding, as {!remove} of each would: a node a
    {!Safe_iter} iterator pins stays, emptied, until the iterator
    leaves it, so the iterator yields no cleared binding. *)

(** Iterators that remain valid across arbitrary tree mutation (§5.3).

    An iterator pins its current node via a reference count. Deleting
    the pinned binding empties the node but leaves it navigable; the
    iterator steps off it normally and triggers the deferred physical
    removal. Bindings inserted mid-walk in the not-yet-visited region
    are observed; already-passed insertions are not. *)
module Safe_iter : sig
  type 'a it

  val start : 'a t -> 'a it
  (** Position before the first binding; call {!next} to begin. *)

  val next : 'a it -> (Ipv4net.t * 'a) option
  (** Advance to the next live binding, or [None] at the end. After
      [None] the iterator is released. *)

  val stop : 'a it -> unit
  (** Release the iterator early (idempotent). *)

  val pinned : 'a it -> Ipv4net.t option
  (** The key the iterator currently pins, if any (for tests). *)
end

val check_invariants : 'a t -> (string, string) result
(** Structural self-check (keys nest correctly, counts agree, no
    dangling empty leaves unpinned). [Ok]: description; [Error]: what
    is broken. Test-suite hook. *)
