(** BGP-4 wire codec (RFC 4271 message formats).

    Messages carry the standard 19-byte header (16-byte all-ones
    marker, 2-byte length, 1-byte type). Path attributes implemented:
    ORIGIN, AS_PATH (4-byte AS numbers), NEXT_HOP, MULTI_EXIT_DISC,
    LOCAL_PREF, ATOMIC_AGGREGATE, COMMUNITY. NLRI and withdrawn routes
    use standard variable-length prefix encoding. *)

type msg =
  | Open of { version : int; my_as : int; hold_time : int; bgp_id : Ipv4.t }
  | Update of {
      withdrawn : Ipv4net.t list;
      attrs : Bgp_types.attrs option; (** [None] iff NLRI is empty. *)
      nlri : Ipv4net.t list;
    }
  | Notification of { code : int; subcode : int; data : string }
  | Keepalive

val encode : msg -> string
(** Complete message including header.
    @raise Invalid_argument if the message exceeds 4096 bytes. *)

val updates :
  withdrawn:Ipv4net.t list -> announce:(Bgp_types.attrs * Ipv4net.t) list ->
  msg list
(** The UPDATEs that carry a batch of route changes, in sending order:
    the withdrawals first, then one group per distinct attribute set
    ({!Bgp_types.attrs_equal}, found by hashing), groups in the order
    of their first route and prefixes in list order. Every list is cut
    at 700 prefixes (a /24 takes four of the 4096 bytes), so a large
    batch becomes several messages rather than one that {!encode}
    refuses. *)

val decode : string -> (msg, string) result
(** Decode exactly one complete message. *)

val msg_to_string : msg -> string

val max_message_size : int
(** 4096, per RFC 4271. *)

(** Incremental parser for a TCP byte stream. *)
module Stream_parser : sig
  type t

  val create : unit -> t

  val feed : t -> string -> (msg list, string) result
  (** Append bytes; return every complete message now available. An
      [Error] (bad marker, bad length, undecodable body) poisons the
      parser — the session must be torn down, as with a real
      NOTIFICATION-worthy framing error. *)

  val buffered : t -> int
end

(** {1 Notification codes used here} *)

val err_msg_header : int
val err_open : int
val err_update : int
val err_hold_timer : int
val err_fsm : int
val err_cease : int
