(** Discrete-event network simulator.

    The paper's experiments run real BGP/RIP sessions between routers;
    we have no testbed, so protocol components in this repo exchange
    their (real, RFC-conformant) wire messages over this simulated
    network instead. It provides TCP-like reliable ordered byte streams
    (BGP sessions) and UDP-like datagrams (RIP), with configurable
    per-path latency and optional datagram loss, all driven by an
    {!Eventloop.t} — normally one with a simulated clock, which makes
    multi-minute convergence experiments run in milliseconds and
    deterministically. *)

type t

val create : ?default_latency:float -> Eventloop.t -> t
(** [default_latency] (seconds, default 0.001) applies to paths that
    don't specify their own. *)

(** Reliable ordered byte-stream channels (TCP stand-in).

    The simulator keeps a registry of stream endpoints so a link cut
    can find the connections crossing it. {b Bound:} it holds the open
    endpoints plus at most [open + 64] closed ones. Whenever an
    endpoint closes or is severed and that would be exceeded, the
    closed ones are dropped in one pass (as they are on every
    {!cut_link}), so restarting components without cutting a link
    does not keep their dead sessions alive. *)
module Stream : sig
  type endpoint
  type listener

  val listen : t -> addr:Ipv4.t -> port:int -> (endpoint -> unit) -> listener
  (** Accept connections to [(addr, port)]; the callback receives the
      server-side endpoint of each new connection.
      @raise Invalid_argument if the address/port is already bound. *)

  val unlisten : listener -> unit

  val connect :
    t -> ?latency:float -> src:Ipv4.t -> dst:Ipv4.t -> port:int ->
    (endpoint option -> unit) -> unit
  (** Attempt a connection; the callback fires one round-trip later
      with the client endpoint, or [None] if nothing listens there. *)

  val send : endpoint -> string -> unit
  (** Queue bytes for in-order delivery to the peer after the path
      latency. Delivery is FIFO in send order even when several
      messages share a deadline and the simulated loop's timer
      tie-break would shuffle their timers — a stream never reorders,
      like TCP. Bytes sent on a closed endpoint are dropped. *)

  val on_receive : endpoint -> (string -> unit) -> unit
  val on_close : endpoint -> (unit -> unit) -> unit

  val close : endpoint -> unit
  (** Close both directions; the notification rides the stream behind
      any data still in flight (like a FIN), so the peer's close
      callback fires after the path latency and after all sent data
      has been delivered. Idempotent. *)

  val sever : endpoint -> unit
  (** Cut the connection {e silently}: both ends stop delivering and
      neither close callback fires — the failure mode that only
      protocol keep-alive/hold timers can detect. *)

  val is_open : endpoint -> bool
  val local_addr : endpoint -> Ipv4.t
  val remote_addr : endpoint -> Ipv4.t

  val registered : t -> int
  (** Endpoints in the registry, open or closed (bound checks). *)
end

(** Datagram channels (UDP stand-in). *)
module Dgram : sig
  type socket

  val bind : t -> addr:Ipv4.t -> port:int -> socket
  (** @raise Invalid_argument if already bound. *)

  val on_receive : socket -> (src:Ipv4.t -> sport:int -> string -> unit) -> unit

  val sendto :
    socket -> ?latency:float -> ?loss:float -> dst:Ipv4.t -> dport:int ->
    string -> unit
  (** Deliver the datagram to whatever socket is bound at
      [(dst, dport)] after the latency; silently dropped if nothing is
      bound or the Bernoulli [loss] trial (default 0) fires. *)

  val close : socket -> unit
  val local_addr : socket -> Ipv4.t
  val local_port : socket -> int
end

val set_loss_seed : t -> int -> unit
(** Reseed the deterministic generator behind datagram loss. *)

(** {1 Link-level faults}

    A link is the unordered pair of the two interface addresses that
    face each other. Cutting it severs every live stream whose two
    endpoint addresses are that pair, makes new connects between the
    pair fail, and silently drops datagrams between the pair, until
    the link heals. *)

val cut_link : ?reset:bool -> t -> a:Ipv4.t -> b:Ipv4.t -> unit
(** Take the [a]–[b] link down. By default crossing streams are cut
    {e silently} (like {!Stream.sever}: only keep-alive/hold timers
    can detect it). With [reset:true] both ends' close callbacks fire
    immediately — a detectable link-down, as when the interface goes
    down under the socket. Idempotent. *)

val heal_link : t -> a:Ipv4.t -> b:Ipv4.t -> unit
(** Bring the [a]–[b] link back up. Streams severed by the cut stay
    dead — the owners must reconnect. Idempotent. *)

val link_cut : t -> a:Ipv4.t -> b:Ipv4.t -> bool
