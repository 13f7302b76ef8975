type dispatch = Xrl.t -> (Xrl_error.t -> Xrl_atom.t list -> unit) -> unit

type reply_cb = Xrl_error.t -> Xrl_atom.t list -> unit

type sender = {
  send_req : Xrl.t -> reply_cb -> unit;
  close_sender : unit -> unit;
  family_of_sender : string;
}

type listener = { address : string; shutdown : unit -> unit }

type family = {
  family_name : string;
  make_listener : Eventloop.t -> dispatch -> listener;
  make_sender : Eventloop.t -> string -> sender;
}
