(** BGP peer session state machine (RFC 4271 §8, simplified but with
    the standard state set: Idle, Connect, Active, OpenSent,
    OpenConfirm, Established).

    The FSM is transport-agnostic: the owner supplies send/close
    functions when a transport comes up and feeds it raw received
    bytes; the FSM runs OPEN negotiation, keepalive and hold timers,
    and reports established/route/down events through callbacks. The
    owner (Bgp_process) handles TCP connection management — who dials
    whom — and reconnection policy. *)

type state = Idle | Connect | Active | OpenSent | OpenConfirm | Established

val state_to_string : state -> string

type config = {
  local_as : int;
  bgp_id : Ipv4.t;
  peer_as : int;         (** Expected remote AS; mismatch refuses the session. *)
  hold_time : float;     (** Proposed hold time, seconds. 0 disables. *)
}

type transport = {
  tr_send : string -> unit;
  tr_close : unit -> unit;
}

type callbacks = {
  on_established : unit -> unit;
  on_update : Bgp_packet.msg -> unit;
  (** Always an [Update]; delivered only in Established. *)
  on_down : string -> unit;
  (** Session fell back to Idle; the reason is diagnostic. The owner
      decides when to redial. *)
}

type t

val create : Eventloop.t -> config -> callbacks -> t

val state : t -> state

val start_active : t -> unit
(** Owner initiated a TCP connect: Idle → Connect. *)

val start_passive : t -> unit
(** Owner is waiting for an inbound connection: Idle → Active. *)

val transport_up : t -> transport -> unit
(** TCP came up (either direction): sends OPEN, moves to OpenSent. *)

val transport_failed : t -> unit
(** The connect attempt failed; back to Idle (owner schedules retry). *)

val recv : t -> string -> unit
(** Feed raw bytes from the transport. *)

val transport_closed : t -> unit
(** The peer closed the connection. *)

val attach_stream : t -> Netsim.Stream.endpoint -> unit
(** Run the session over a simulated stream that just came up: its
    received bytes feed {!recv}, its close is {!transport_closed}, and
    {!transport_up} sends and closes through it. *)

val send_update : t -> Bgp_packet.msg -> bool
(** Transmit an UPDATE if Established; returns false otherwise. *)

val stop : t -> unit
(** Administrative stop: send CEASE if possible, close, go Idle.
    No [on_down] callback fires (the owner asked). *)

val negotiated_hold_time : t -> float
(** Min of proposed and received hold times; 0 when not established. *)

val updates_received : t -> int
val updates_sent : t -> int
