(** Protocol-family plumbing shared by all XRL transports (paper §6.3).

    A protocol family moves resolved XRLs from a sender to a receiving
    component and routes replies back. Families are small: a listener
    constructor (receiving side) and a sender constructor, plus
    marshaling via {!Xrl_wire} for the networked ones. *)

type dispatch = Xrl.t -> (Xrl_error.t -> Xrl_atom.t list -> unit) -> unit
(** The receiving component's demultiplexer: the callback must be
    invoked exactly once per request with the outcome. *)

type reply_cb = Xrl_error.t -> Xrl_atom.t list -> unit

type sender = {
  send_req : Xrl.t -> reply_cb -> unit;
  (** Send one request, one frame per request on the networked
      families; the callback settles with its own reply or error.
      Requests to one destination are sent in call order. *)
  close_sender : unit -> unit;
  family_of_sender : string;
}

type listener = {
  address : string;  (** What to register with the Finder. *)
  shutdown : unit -> unit;
}

type family = {
  family_name : string;
  make_listener : Eventloop.t -> dispatch -> listener;
  make_sender : Eventloop.t -> string -> sender;
  (** [make_sender loop address]; senders are cached per address by
      {!Xrl_router}. @raise Invalid_argument on a malformed address. *)
}
