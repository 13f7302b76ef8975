let src = Logs.Src.create "xorp.bgp.fsm" ~doc:"BGP peer FSM"

module Log = (val Logs.src_log src : Logs.LOG)

type state = Idle | Connect | Active | OpenSent | OpenConfirm | Established

let state_to_string = function
  | Idle -> "Idle"
  | Connect -> "Connect"
  | Active -> "Active"
  | OpenSent -> "OpenSent"
  | OpenConfirm -> "OpenConfirm"
  | Established -> "Established"

type config = {
  local_as : int;
  bgp_id : Ipv4.t;
  peer_as : int;
  hold_time : float;
}

type transport = { tr_send : string -> unit; tr_close : unit -> unit }

type callbacks = {
  on_established : unit -> unit;
  on_update : Bgp_packet.msg -> unit;
  on_down : string -> unit;
}

type t = {
  loop : Eventloop.t;
  config : config;
  cbs : callbacks;
  mutable st : state;
  mutable transport : transport option;
  mutable parser : Bgp_packet.Stream_parser.t;
  mutable hold : float; (* negotiated *)
  mutable hold_timer : Eventloop.timer option;
  mutable keepalive_timer : Eventloop.timer option;
  mutable rx_updates : int;
  mutable tx_updates : int;
}

let create loop config cbs =
  {
    loop; config; cbs; st = Idle; transport = None;
    parser = Bgp_packet.Stream_parser.create ();
    hold = 0.0; hold_timer = None; keepalive_timer = None;
    rx_updates = 0; tx_updates = 0;
  }

let state t = t.st
let negotiated_hold_time t = if t.st = Established then t.hold else 0.0
let updates_received t = t.rx_updates
let updates_sent t = t.tx_updates

let cancel_timers t =
  Option.iter Eventloop.cancel t.hold_timer;
  Option.iter Eventloop.cancel t.keepalive_timer;
  t.hold_timer <- None;
  t.keepalive_timer <- None

let close_transport t =
  (match t.transport with Some tr -> tr.tr_close () | None -> ());
  t.transport <- None

let to_idle ?(notify = true) t reason =
  let was = t.st in
  cancel_timers t;
  close_transport t;
  t.st <- Idle;
  t.parser <- Bgp_packet.Stream_parser.create ();
  if notify && was <> Idle then t.cbs.on_down reason

let send_msg t msg =
  match t.transport with
  | Some tr -> tr.tr_send (Bgp_packet.encode msg)
  | None -> ()

let send_notification t code subcode =
  send_msg t (Bgp_packet.Notification { code; subcode; data = "" })

let reset_hold_timer t =
  Option.iter Eventloop.cancel t.hold_timer;
  if t.hold > 0.0 then
    t.hold_timer <-
      Some
        (Eventloop.after t.loop t.hold (fun () ->
             send_notification t Bgp_packet.err_hold_timer 0;
             to_idle t "hold timer expired"))

let start_keepalives t =
  Option.iter Eventloop.cancel t.keepalive_timer;
  if t.hold > 0.0 then begin
    let ival = t.hold /. 3.0 in
    t.keepalive_timer <-
      Some
        (Eventloop.periodic t.loop ival (fun () ->
             send_msg t Bgp_packet.Keepalive;
             true))
  end

let start_active t = if t.st = Idle then t.st <- Connect
let start_passive t = if t.st = Idle then t.st <- Active

let send_open t =
  send_msg t
    (Bgp_packet.Open
       { version = 4; my_as = t.config.local_as;
         hold_time = int_of_float t.config.hold_time;
         bgp_id = t.config.bgp_id })

let transport_up t tr =
  match t.st with
  | Idle | Connect | Active ->
    t.transport <- Some tr;
    t.parser <- Bgp_packet.Stream_parser.create ();
    send_open t;
    t.st <- OpenSent;
    (* Until negotiation completes, guard with our own hold time. *)
    t.hold <- t.config.hold_time;
    reset_hold_timer t
  | OpenSent | OpenConfirm | Established ->
    (* Connection collision: keep the existing session, refuse this
       transport. *)
    tr.tr_close ()

let transport_failed t =
  match t.st with
  | Connect | Active -> to_idle t "connect failed"
  | Idle | OpenSent | OpenConfirm | Established -> ()

let transport_closed t =
  match t.st with
  | Idle -> ()
  | Connect | Active | OpenSent | OpenConfirm | Established ->
    t.transport <- None;
    to_idle t "connection closed by peer"

let handle_open t (version, my_as, hold_time) =
  if version <> 4 then begin
    send_notification t Bgp_packet.err_open 1;
    to_idle t "unsupported BGP version"
  end
  else if my_as <> t.config.peer_as then begin
    send_notification t Bgp_packet.err_open 2;
    to_idle t
      (Printf.sprintf "bad peer AS %d (expected %d)" my_as t.config.peer_as)
  end
  else begin
    t.hold <- min t.config.hold_time (float_of_int hold_time);
    send_msg t Bgp_packet.Keepalive;
    t.st <- OpenConfirm;
    reset_hold_timer t
  end

let handle_msg t msg =
  reset_hold_timer t;
  match t.st, msg with
  | OpenSent, Bgp_packet.Open { version; my_as; hold_time; _ } ->
    handle_open t (version, my_as, hold_time)
  | OpenConfirm, Bgp_packet.Keepalive ->
    t.st <- Established;
    start_keepalives t;
    t.cbs.on_established ()
  | Established, Bgp_packet.Keepalive -> ()
  | Established, (Bgp_packet.Update _ as u) ->
    t.rx_updates <- t.rx_updates + 1;
    t.cbs.on_update u
  | _, Bgp_packet.Notification { code; subcode; _ } ->
    to_idle t (Printf.sprintf "peer sent NOTIFICATION %d/%d" code subcode)
  | (OpenSent | OpenConfirm), Bgp_packet.Update _ ->
    send_notification t Bgp_packet.err_fsm 0;
    to_idle t "UPDATE before session establishment"
  | Established, Bgp_packet.Open _ | OpenConfirm, Bgp_packet.Open _ ->
    send_notification t Bgp_packet.err_fsm 0;
    to_idle t "unexpected OPEN"
  | OpenSent, Bgp_packet.Keepalive ->
    send_notification t Bgp_packet.err_fsm 0;
    to_idle t "KEEPALIVE before OPEN"
  | (Idle | Connect | Active), _ ->
    Log.warn (fun m -> m "message in state %s dropped" (state_to_string t.st))

let recv t data =
  match Bgp_packet.Stream_parser.feed t.parser data with
  | Ok msgs -> List.iter (fun msg -> if t.st <> Idle then handle_msg t msg) msgs
  | Error e ->
    send_notification t Bgp_packet.err_msg_header 0;
    to_idle t ("framing error: " ^ e)

let attach_stream t ep =
  Netsim.Stream.on_receive ep (fun data -> recv t data);
  Netsim.Stream.on_close ep (fun () -> transport_closed t);
  transport_up t
    { tr_send = (fun data -> Netsim.Stream.send ep data);
      tr_close = (fun () -> Netsim.Stream.close ep) }

let send_update t msg =
  if t.st = Established then begin
    t.tx_updates <- t.tx_updates + 1;
    send_msg t msg;
    true
  end
  else false

let stop t =
  if t.st <> Idle then begin
    send_notification t Bgp_packet.err_cease 0;
    to_idle ~notify:false t "administrative stop"
  end
