(** A routing protocol's datagram sockets, relayed by the FEA
    ([fea_udp/1.0] out, [fea_client/1.0/recv] in).

    The paper's sandboxing story (§7): a protocol never touches the
    network itself. RIP and OSPF each open one relay socket per local
    interface address through this one client, which owns the sockid
    table and every lifecycle rule around it:

    - an open is retried with backoff (10 attempts): at process start
      the FEA may not be registered yet, and on a chaotic transport the
      request itself can be lost — without retry one lost [udp_open]
      would silence the interface for good;
    - when the FEA dies its relay sockets die with it, so every sockid
      is forgotten; when an FEA is (re)born, every socket is re-opened,
      once {!start} has run — including an FEA born after the
      protocol. Both go through the component's one
      {!Xrl_router.watch_peer} on class ["fea"]. *)

type t

val create :
  Xrl_router.t -> port:int -> addrs:Ipv4.t list -> on_open:(Ipv4.t -> unit) ->
  recv:(src:Ipv4.t -> sport:int -> string -> unit) -> t
(** Relay sockets on UDP [port] of each local address in [addrs], for
    the component behind the router. Registers [fea_client/1.0/recv],
    which hands [recv] each datagram's source, source port and payload,
    and watches the ["fea"] class. [on_open addr] runs each time the
    socket on [addr] opens, re-opens included. Nothing is opened until
    {!start}. *)

val start : t -> unit
(** Open one socket per address. Idempotent. *)

val send : t -> ifaddr:Ipv4.t -> dst:Ipv4.t -> string -> unit
(** Send a datagram from the socket on [ifaddr] to [port] on [dst]
    ([fea_udp/1.0/udp_send]). Dropped while that socket is not open. *)
