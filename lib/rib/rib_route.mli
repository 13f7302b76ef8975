(** Routes as seen by the RIB.

    Unlike BGP, the RIB arbitrates between protocols "purely on the
    basis of a single administrative distance metric" (paper §5.2),
    which is what allows its decision process to be distributed as
    pairwise merge stages. *)

type t = {
  net : Ipv4net.t;
  nexthop : Ipv4.t;
  metric : int;            (** Protocol-internal metric (e.g. RIP hops). *)
  admin_distance : int;    (** Lower wins across protocols. *)
  protocol : string;       (** Origin protocol name ("rip", "ebgp", ...). *)
  tags : int list;         (** Policy tags (§8.3). *)
}

val make :
  net:Ipv4net.t -> nexthop:Ipv4.t -> ?metric:int -> ?admin_distance:int ->
  protocol:string -> ?tags:int list -> unit -> t
(** [admin_distance] defaults to {!default_admin_distance} of
    [protocol] (or 255 for unknown protocols). *)

val default_admin_distance : string -> int option
(** The conventional table: connected 0, static 1, ebgp 20, ospf 110,
    rip 120, ibgp 200. *)

val equal : t -> t -> bool
val to_string : t -> string
