(** Core BGP data types: path attributes, routes as they flow through
    the staged pipeline, and peer metadata used by the decision
    process. *)

type origin = IGP | EGP | INCOMPLETE

val origin_rank : origin -> int
(** IGP 0 < EGP 1 < INCOMPLETE 2 (lower preferred). *)

type attrs = {
  origin : origin;
  aspath : Aspath.t;
  nexthop : Ipv4.t;
  med : int option;
  localpref : int option;   (** Present on IBGP sessions. *)
  communities : int list;   (** 32-bit community values. *)
  atomic_aggregate : bool;
}

val default_attrs : nexthop:Ipv4.t -> attrs
(** IGP origin, empty AS path, no MED/localpref/communities. *)

val attrs_equal : attrs -> attrs -> bool

type route = {
  net : Ipv4net.t;
  attrs : attrs;
  peer_id : int;
  (** Which PeerIn branch the route entered through; 0 is the local
      branch (originated networks). *)
  igp_metric : int option;
  (** Annotated by the nexthop-resolver stage: [Some m] when the
      nexthop resolves through the IGP with metric [m]; [None] when
      unresolved (the decision process ignores such routes). *)
}

val route_equal : route -> route -> bool
val route_to_string : route -> string

type peer_kind = Ebgp | Ibgp

type peer_info = {
  peer_id : int;
  peer_addr : Ipv4.t;
  peer_as : int;
  kind : peer_kind;
  peer_bgp_id : Ipv4.t;
}

val local_peer_info : local_as:int -> bgp_id:Ipv4.t -> peer_info
(** The pseudo-peer (id 0) for locally originated networks. *)

val effective_localpref : attrs -> int
(** [localpref] or the conventional default 100. *)

(** {1 Ambient priority lane}

    The urgent/bulk lane ({!Laneq.lane}) a route change is travelling
    in, threaded through the staged pipeline like trace contexts:
    stages that defer work capture the current lane with each entry and
    reinstate it when draining. Default is [Urgent]. *)

val current_lane : unit -> Laneq.lane

val with_lane : Laneq.lane -> (unit -> 'a) -> 'a
(** [with_lane lane f] runs [f] with the ambient lane set to [lane],
    restoring the previous lane afterwards (exception-safe). *)
