(** The scanner-based BGP baseline for Figure 13.

    This deliberately reproduces the design the paper argues {e
    against}: a closely-coupled router in the style of Cisco IOS and
    Zebra/Quagga, where incoming updates are merely stored and a
    periodic {e route scanner} (default every 30 s) later walks the
    table, runs the decision process, and propagates the results.
    Routes received just after a scan wait nearly the full interval —
    the sawtooth in Figure 13.

    It speaks the same RFC 4271 messages over the same simulated
    network as {!Bgp_process} and reuses the same decision ladder, so
    the only variable in the comparison is event-driven versus
    scanner-based processing. *)

type t

val create :
  Eventloop.t -> Netsim.t -> local_as:int -> bgp_id:Ipv4.t ->
  ?scan_interval:float -> ?scan_offset:float -> ?bgp_port:int -> unit -> t
(** [scan_interval] defaults to 30 s; [scan_offset] phase-shifts the
    first scan (distinguishing "Cisco" from "Quagga" in the figure). *)

val add_peer :
  t -> peer_addr:Ipv4.t -> local_addr:Ipv4.t -> peer_as:int ->
  ?passive:bool -> unit -> unit

val start : t -> unit

val originate : t -> Ipv4net.t -> unit
(** Takes effect at the next scan, like everything else here. *)

val route_count : t -> int
(** Best routes as of the last scan. *)

val scans_performed : t -> int
val established_count : t -> int
val shutdown : t -> unit
