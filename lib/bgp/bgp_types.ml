type origin = IGP | EGP | INCOMPLETE

let origin_rank = function IGP -> 0 | EGP -> 1 | INCOMPLETE -> 2

type attrs = {
  origin : origin;
  aspath : Aspath.t;
  nexthop : Ipv4.t;
  med : int option;
  localpref : int option;
  communities : int list;
  atomic_aggregate : bool;
}

let default_attrs ~nexthop =
  { origin = IGP; aspath = Aspath.empty; nexthop; med = None;
    localpref = None; communities = []; atomic_aggregate = false }

let attrs_equal a b =
  a.origin = b.origin
  && Aspath.equal a.aspath b.aspath
  && Ipv4.equal a.nexthop b.nexthop
  && a.med = b.med
  && a.localpref = b.localpref
  && a.communities = b.communities
  && a.atomic_aggregate = b.atomic_aggregate

type route = {
  net : Ipv4net.t;
  attrs : attrs;
  peer_id : int;
  igp_metric : int option;
}

let route_equal a b =
  Ipv4net.equal a.net b.net
  && a.peer_id = b.peer_id
  && attrs_equal a.attrs b.attrs
  && a.igp_metric = b.igp_metric

let route_to_string r =
  Printf.sprintf "%s nh %s path [%s] peer %d%s"
    (Ipv4net.to_string r.net)
    (Ipv4.to_string r.attrs.nexthop)
    (Aspath.to_string r.attrs.aspath)
    r.peer_id
    (match r.igp_metric with
     | Some m -> Printf.sprintf " igp %d" m
     | None -> " unresolved")

type peer_kind = Ebgp | Ibgp

type peer_info = {
  peer_id : int;
  peer_addr : Ipv4.t;
  peer_as : int;
  kind : peer_kind;
  peer_bgp_id : Ipv4.t;
}

let local_peer_info ~local_as ~bgp_id =
  { peer_id = 0; peer_addr = Ipv4.zero; peer_as = local_as; kind = Ibgp;
    peer_bgp_id = bgp_id }

let effective_localpref attrs = Option.value attrs.localpref ~default:100

(* Ambient priority lane (urgent vs bulk), threaded through the staged
   pipeline the same way trace contexts are: stages that defer work
   capture the current lane alongside the entry and reinstate it when
   draining, so a route classified bulk at the inbound staging queue
   stays in the bulk lane all the way to the RIB hand-off. The default
   is Urgent: interactive paths (originate/withdraw, redistribution,
   nexthop invalidation) never wait behind a bulk backlog. *)
let current_lane_ref = ref Laneq.Urgent

let current_lane () = !current_lane_ref

let with_lane lane f =
  let saved = !current_lane_ref in
  current_lane_ref := lane;
  Fun.protect ~finally:(fun () -> current_lane_ref := saved) f
