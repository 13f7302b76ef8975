(** Binary wire encoding of XRL requests and replies.

    The paper (§6.1): "The canonical form of an XRL is textual ...
    Internally XRLs are encoded more efficiently." This module is that
    efficient internal encoding, used by the networked protocol
    families (TCP and UDP). Messages are length-delimited externally
    (TCP framing adds a 4-byte length prefix; UDP datagrams are
    self-delimiting).

    Layout: 2-byte magic ["XO"], 1-byte version, 1-byte kind, then a
    kind-specific payload with 16-bit length-prefixed strings and typed
    atoms. Requests (kind 0) and replies (kind 1) carry a 4-byte
    sequence number. Every frame holds exactly one message, as in the
    paper; bulk work rides in one XRL's arguments instead (the RIB's
    [add_routes4] / [delete_routes4], see {!Route_pack}). *)

type message =
  | Request of { seq : int; xrl : Xrl.t }
  | Reply of {
      seq : int;
      error : Xrl_error.t;
      args : Xrl_atom.t list;
    }

val encode : message -> string

val encode_into : Wire.W.t -> message -> unit
(** Encode directly into an existing writer — used with
    {!Sockbuf.send_frame_into} to build header and payload in one
    buffer with no intermediate string.
    @raise Invalid_argument on a string field longer than 65535 bytes. *)

val decode : string -> (message, string) result
(** Decodes one complete message; [Error] on malformed or truncated
    input, an unsupported version, or an unknown kind. *)

val encode_atoms : Wire.W.t -> Xrl_atom.t list -> unit
(** Exposed for tests and for protocol families that embed atom lists
    in their own framing. *)

val decode_atoms : Wire.R.t -> Xrl_atom.t list
(** @raise Wire.Truncated or [Failure] on malformed input. *)
