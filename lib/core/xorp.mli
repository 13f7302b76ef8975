(** camlXORP: the public umbrella API.

    An OCaml reproduction of the XORP extensible router control plane
    (Handley, Kohler, Ghosh, Hodson, Radoslavov — "Designing Extensible
    IP Router Software", NSDI 2005).

    The constituent libraries are unwrapped, so their modules
    ({!Eventloop}, {!Finder}, {!Xrl_router}, {!Rib}, {!Bgp_process},
    {!Rip_process}, {!Rtrmgr}, ...) are directly visible once
    [xorp_core] is linked. This module adds the version, a programmatic
    router builder for when a configuration file is overkill, and a
    pre-assembled "stack" record tying one router's components
    together. *)

val version : string

type stack = {
  finder : Finder.t;
  loop : Eventloop.t;
  net : Netsim.t;
  fea : Fea.t;
  rib : Rib.t;
  mutable bgp : Bgp_process.t option;
  mutable rip : Rip_process.t option;
}

val make_stack :
  ?interfaces:(string * Ipv4.t) list ->
  loop:Eventloop.t -> net:Netsim.t -> unit -> stack
(** FEA + RIB on a fresh Finder, with connected /24 routes for each
    interface. Protocols are added with {!add_bgp} / {!add_rip}. *)

val add_bgp :
  stack -> local_as:int -> bgp_id:Ipv4.t ->
  ?peers:Bgp_process.peer_config list -> unit -> Bgp_process.t
(** Create, configure and start a BGP process on the stack. *)

val add_rip : stack -> Rip_process.config -> Rip_process.t

val shutdown_stack : stack -> unit

val run_stacks : Eventloop.t -> seconds:float -> unit
(** Advance the shared event loop by [seconds] (convenience alias for
    {!Eventloop.run_until_time} from "now"). *)
