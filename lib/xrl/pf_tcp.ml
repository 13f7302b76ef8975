let src = Logs.Src.create "xorp.pf_tcp" ~doc:"XRL TCP protocol family"

module Log = (val Logs.src_log src : Logs.LOG)

let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* Metric handles resolved once at module load, not per call. *)
let c_bytes_rx = Telemetry.counter "xrl.tcp.bytes_rx"
let c_bytes_tx = Telemetry.counter "xrl.tcp.bytes_tx"
let c_requests_rx = Telemetry.counter "xrl.tcp.requests_rx"
let c_requests_tx = Telemetry.counter "xrl.tcp.requests_tx"

let count_bytes c n = if Telemetry.is_enabled () then Telemetry.add c n
let count c = if Telemetry.is_enabled () then Telemetry.incr c

let require_real loop what =
  if Eventloop.mode loop <> `Real then
    invalid_arg (what ^ ": TCP protocol family needs a `Real event loop")

let parse_address address =
  match String.rindex_opt address ':' with
  | None -> invalid_arg ("Pf_tcp: bad address " ^ address)
  | Some i ->
    let host = String.sub address 0 i in
    let port = String.sub address (i + 1) (String.length address - i - 1) in
    (match Ipv4.of_string host, int_of_string_opt port with
     | Some _, Some port ->
       (Unix.inet_addr_of_string host, port)
     | _ -> invalid_arg ("Pf_tcp: bad address " ^ address))

let frame_out conn msg =
  let n =
    Sockbuf.send_frame_into conn (fun w -> Xrl_wire.encode_into w msg)
  in
  count_bytes c_bytes_tx n

(* --- Listener ------------------------------------------------------ *)

let make_listener loop (dispatch : Pf.dispatch) : Pf.listener =
  require_real loop "Pf_tcp.make_listener";
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  let conns : Sockbuf.t list ref = ref [] in
  let serve_conn conn_ref frame =
    count_bytes c_bytes_rx (String.length frame);
    match Xrl_wire.decode frame with
    | Ok (Xrl_wire.Request { seq; xrl }) ->
      count c_requests_rx;
      dispatch xrl (fun error args ->
          match !conn_ref with
          | Some conn when Sockbuf.is_open conn ->
            frame_out conn (Xrl_wire.Reply { seq; error; args })
          | _ -> ())
    | Ok (Xrl_wire.Reply _) ->
      Log.warn (fun m -> m "listener got a stray reply; dropping")
    | Error msg -> Log.warn (fun m -> m "undecodable request: %s" msg)
  in
  let accept_ready () =
    let rec accept_all () =
      match Unix.accept lfd with
      | fd, _ ->
        set_nodelay fd;
        let conn_ref = ref None in
        let conn =
          Sockbuf.attach loop fd
            ~on_frame:(fun frame -> serve_conn conn_ref frame)
            ~on_close:(fun () ->
                conns :=
                  List.filter
                    (fun c ->
                       match !conn_ref with
                       | Some mine -> not (c == mine)
                       | None -> true)
                    !conns)
        in
        conn_ref := Some conn;
        conns := conn :: !conns;
        accept_all ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
    in
    accept_all ()
  in
  Eventloop.add_reader loop lfd accept_ready;
  let shutdown () =
    Eventloop.remove_reader loop lfd;
    (try Unix.close lfd with Unix.Unix_error _ -> ());
    List.iter Sockbuf.close !conns;
    conns := []
  in
  { address = Printf.sprintf "127.0.0.1:%d" port; shutdown }

(* --- Sender -------------------------------------------------------- *)

type sender_state = {
  outstanding : (int, Xrl_error.t -> Xrl_atom.t list -> unit) Hashtbl.t;
  mutable seq : int;
  mutable conn : Sockbuf.t option;
}

let make_sender loop address : Pf.sender =
  require_real loop "Pf_tcp.make_sender";
  let inet, port = parse_address address in
  let st = { outstanding = Hashtbl.create 64; seq = 0; conn = None } in
  let fail_all reason =
    (* Fail in ascending seq (= send) order: the router promises
       per-destination FIFO delivery of replies and errors, and
       Hashtbl.fold's order is arbitrary. *)
    let cbs =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun seq cb acc -> (seq, cb) :: acc) st.outstanding [])
    in
    Hashtbl.reset st.outstanding;
    List.iter (fun (_, cb) -> cb (Xrl_error.Send_failed reason) []) cbs
  in
  let on_frame frame =
    count_bytes c_bytes_rx (String.length frame);
    match Xrl_wire.decode frame with
    | Ok (Xrl_wire.Reply { seq; error; args }) ->
      (match Hashtbl.find_opt st.outstanding seq with
       | Some cb ->
         Hashtbl.remove st.outstanding seq;
         cb error args
       | None -> Log.warn (fun m -> m "reply for unknown seq %d" seq))
    | Ok (Xrl_wire.Request _) ->
      Log.warn (fun m -> m "sender got a request; dropping")
    | Error msg -> Log.warn (fun m -> m "undecodable reply: %s" msg)
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    set_nodelay fd;
    Unix.set_nonblock fd;
    (try Unix.connect fd (Unix.ADDR_INET (inet, port)) with
     | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
     | Unix.Unix_error _ as e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    st.conn <-
      Some
        (Sockbuf.attach loop fd ~on_frame ~on_close:(fun () ->
             st.conn <- None;
             fail_all "connection closed"))
  in
  (* The live connection, connecting on demand. *)
  let ensure_conn () =
    match st.conn with
    | Some conn when Sockbuf.is_open conn -> Ok conn
    | _ ->
      (match connect () with
       | () -> Option.to_result ~none:"not connected" st.conn
       | exception Unix.Unix_error (err, _, _) ->
         Error (Unix.error_message err))
  in
  let send_req xrl cb =
    match ensure_conn () with
    | Error msg -> cb (Xrl_error.Send_failed msg) []
    | Ok conn ->
      st.seq <- st.seq + 1;
      Hashtbl.replace st.outstanding st.seq cb;
      count c_requests_tx;
      frame_out conn (Xrl_wire.Request { seq = st.seq; xrl })
  in
  let close_sender () =
    (match st.conn with
     | Some conn -> Sockbuf.close conn
     | None -> ());
    st.conn <- None;
    fail_all "sender closed"
  in
  { send_req; close_sender; family_of_sender = "stcp" }

let family : Pf.family = { family_name = "stcp"; make_listener; make_sender }
