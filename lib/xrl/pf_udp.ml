let src = Logs.Src.create "xorp.pf_udp" ~doc:"XRL UDP protocol family"

module Log = (val Logs.src_log src : Logs.LOG)

let request_timeout = 3.0
let max_dgram = 65000

(* Metric handles resolved once at module load, not per call. *)
let c_bytes_rx = Telemetry.counter "xrl.udp.bytes_rx"
let c_bytes_tx = Telemetry.counter "xrl.udp.bytes_tx"
let c_requests_rx = Telemetry.counter "xrl.udp.requests_rx"
let c_requests_tx = Telemetry.counter "xrl.udp.requests_tx"

let count_bytes c n = if Telemetry.is_enabled () then Telemetry.add c n
let count c = if Telemetry.is_enabled () then Telemetry.incr c

let require_real loop what =
  if Eventloop.mode loop <> `Real then
    invalid_arg (what ^ ": UDP protocol family needs a `Real event loop")

let make_listener loop (dispatch : Pf.dispatch) : Pf.listener =
  require_real loop "Pf_udp.make_listener";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock fd;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  let buf = Bytes.create max_dgram in
  let send_to peer msg =
    let reply = Xrl_wire.encode msg in
    count_bytes c_bytes_tx (String.length reply);
    try
      ignore
        (Unix.sendto fd (Bytes.of_string reply) 0 (String.length reply) []
           peer)
    with Unix.Unix_error _ -> ()
  in
  let readable () =
    let rec drain () =
      match Unix.recvfrom fd buf 0 max_dgram [] with
      | n, peer ->
        count_bytes c_bytes_rx n;
        (match Xrl_wire.decode (Bytes.sub_string buf 0 n) with
         | Ok (Xrl_wire.Request { seq; xrl }) ->
           count c_requests_rx;
           dispatch xrl (fun error args ->
               send_to peer (Xrl_wire.Reply { seq; error; args }))
         | Ok (Xrl_wire.Reply _) ->
           Log.warn (fun m -> m "listener got a stray reply")
         | Error msg -> Log.warn (fun m -> m "undecodable request: %s" msg));
        drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
    in
    drain ()
  in
  Eventloop.add_reader loop fd readable;
  let shutdown () =
    Eventloop.remove_reader loop fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  { address = Printf.sprintf "127.0.0.1:%d" port; shutdown }

let parse_address address =
  match String.rindex_opt address ':' with
  | None -> invalid_arg ("Pf_udp: bad address " ^ address)
  | Some i ->
    let host = String.sub address 0 i in
    let port = String.sub address (i + 1) (String.length address - i - 1) in
    (match Ipv4.of_string host, int_of_string_opt port with
     | Some _, Some port -> (Unix.inet_addr_of_string host, port)
     | _ -> invalid_arg ("Pf_udp: bad address " ^ address))

type inflight = {
  if_seq : int;
  if_cb : Xrl_error.t -> Xrl_atom.t list -> unit;
  if_timer : Eventloop.timer;
}

let make_sender loop address : Pf.sender =
  require_real loop "Pf_udp.make_sender";
  let inet, port = parse_address address in
  let dest = Unix.ADDR_INET (inet, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock fd;
  let queue : (Xrl.t * (Xrl_error.t -> Xrl_atom.t list -> unit)) Queue.t =
    Queue.create ()
  in
  let inflight : inflight option ref = ref None in
  let seq = ref 0 in
  let opened = ref true in
  let buf = Bytes.create max_dgram in
  let rec send_next () =
    if !opened && !inflight = None then
      match Queue.take_opt queue with
      | None -> ()
      | Some (xrl, cb) ->
        incr seq;
        let this_seq = !seq in
        let payload = Xrl_wire.encode (Xrl_wire.Request { seq = this_seq; xrl }) in
        count c_requests_tx;
        count_bytes c_bytes_tx (String.length payload);
        (match
           Unix.sendto fd (Bytes.of_string payload) 0 (String.length payload)
             [] dest
         with
         | _ ->
           let timer =
             Eventloop.after loop request_timeout (fun () ->
                 match !inflight with
                 | Some f when f.if_seq = this_seq ->
                   inflight := None;
                   f.if_cb (Xrl_error.Reply_timed_out "udp request") [];
                   send_next ()
                 | _ -> ())
           in
           inflight := Some { if_seq = this_seq; if_cb = cb; if_timer = timer }
         | exception Unix.Unix_error (err, _, _) ->
           cb (Xrl_error.Send_failed (Unix.error_message err)) [];
           send_next ())
  in
  let readable () =
    let rec drain () =
      match Unix.recvfrom fd buf 0 max_dgram [] with
      | n, _ ->
        count_bytes c_bytes_rx n;
        (match Xrl_wire.decode (Bytes.sub_string buf 0 n) with
         | Ok (Xrl_wire.Reply { seq = rseq; error; args }) ->
           (match !inflight with
            | Some f when f.if_seq = rseq ->
              Eventloop.cancel f.if_timer;
              inflight := None;
              f.if_cb error args;
              send_next ()
            | _ -> Log.warn (fun m -> m "reply for unknown seq %d" rseq))
         | Ok (Xrl_wire.Request _) ->
           Log.warn (fun m -> m "sender got a request")
         | Error msg -> Log.warn (fun m -> m "undecodable reply: %s" msg));
        drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
    in
    drain ()
  in
  Eventloop.add_reader loop fd readable;
  let send_req xrl cb =
    if !opened then begin
      Queue.push (xrl, cb) queue;
      send_next ()
    end
    else cb (Xrl_error.Send_failed "sender closed") []
  in
  let close_sender () =
    if !opened then begin
      opened := false;
      Eventloop.remove_reader loop fd;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match !inflight with
       | Some f ->
         Eventloop.cancel f.if_timer;
         inflight := None;
         f.if_cb (Xrl_error.Send_failed "sender closed") []
       | None -> ());
      Queue.iter (fun (_, cb) -> cb (Xrl_error.Send_failed "sender closed") []) queue;
      Queue.clear queue
    end
  in
  { send_req; close_sender; family_of_sender = "sudp" }

let family : Pf.family = { family_name = "sudp"; make_listener; make_sender }
