let src = Logs.Src.create "xorp.pf_sim" ~doc:"XRL simulated-network family"

module Log = (val Logs.src_log src : Logs.LOG)

let next_port = ref 7000

let parse_address address =
  match String.split_on_char ':' address with
  | [ "sim"; host; port ] ->
    (match Ipv4.of_string host, int_of_string_opt port with
     | Some a, Some p -> (a, p)
     | _ -> invalid_arg ("Pf_sim: bad address " ^ address))
  | _ -> invalid_arg ("Pf_sim: bad address " ^ address)

(* Netsim streams preserve send boundaries, so each Stream.send is one
   complete Xrl_wire message: no length framing needed. *)

let make_listener ~requests_rx netsim ~local_addr _loop
    (dispatch : Pf.dispatch) : Pf.listener =
  incr next_port;
  let port = !next_port in
  let listener =
    Netsim.Stream.listen netsim ~addr:local_addr ~port (fun ep ->
        Netsim.Stream.on_receive ep (fun data ->
            match Xrl_wire.decode data with
            | Ok (Xrl_wire.Request { seq; xrl }) ->
              if Telemetry.is_enabled () then Telemetry.incr requests_rx;
              dispatch xrl (fun error args ->
                  if Netsim.Stream.is_open ep then
                    Netsim.Stream.send ep
                      (Xrl_wire.encode (Xrl_wire.Reply { seq; error; args })))
            | Ok (Xrl_wire.Reply _) ->
              Log.warn (fun m -> m "listener got a stray reply")
            | Error msg -> Log.warn (fun m -> m "undecodable request: %s" msg)))
  in
  { address = Printf.sprintf "sim:%s:%d" (Ipv4.to_string local_addr) port;
    shutdown = (fun () -> Netsim.Stream.unlisten listener) }

type sender_state = {
  outstanding : (int, Xrl_error.t -> Xrl_atom.t list -> unit) Hashtbl.t;
  pending : (Xrl.t * (Xrl_error.t -> Xrl_atom.t list -> unit)) Queue.t;
  mutable seq : int;
  mutable ep : Netsim.Stream.endpoint option;
  mutable connecting : bool;
  mutable closed : bool;
  mutable last_tx : float;
      (* Latest scheduled transmit time under a latency model; keeps
         delayed transmits monotone so per-destination FIFO holds. *)
}

let make_sender ~requests_tx ?latency netsim ~local_addr loop address :
  Pf.sender =
  let dst, port = parse_address address in
  let st =
    { outstanding = Hashtbl.create 32; pending = Queue.create (); seq = 0;
      ep = None; connecting = false; closed = false; last_tx = neg_infinity }
  in
  let fail_all reason =
    (* Ascending seq order, then the not-yet-transmitted queue: keeps
       the per-destination FIFO promise (sent-first fails first). *)
    let cbs =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun seq cb acc -> (seq, cb) :: acc) st.outstanding [])
    in
    Hashtbl.reset st.outstanding;
    List.iter (fun (_, cb) -> cb (Xrl_error.Send_failed reason) []) cbs;
    Queue.iter (fun (_, cb) -> cb (Xrl_error.Send_failed reason) []) st.pending;
    Queue.clear st.pending
  in
  let do_transmit ep xrl cb =
    if Telemetry.is_enabled () then Telemetry.incr requests_tx;
    st.seq <- st.seq + 1;
    Hashtbl.replace st.outstanding st.seq cb;
    Netsim.Stream.send ep (Xrl_wire.encode (Xrl_wire.Request { seq = st.seq; xrl }))
  in
  (* With a latency model, each transmit is held for a drawn delay.
     Targets are forced strictly monotone per sender, so requests to
     one destination still leave (and are sequenced) in send order —
     only the interleaving {e across} senders varies with the draw. *)
  let transmit ep xrl cb =
    match latency with
    | None -> do_transmit ep xrl cb
    | Some draw ->
      let now = Eventloop.now loop in
      let target = Float.max (now +. Float.max 0. (draw ())) st.last_tx in
      let target = if target <= st.last_tx then st.last_tx +. 1e-9 else target in
      st.last_tx <- target;
      ignore
        (Eventloop.after loop (target -. now) (fun () ->
             if st.closed then cb (Xrl_error.Send_failed "sender closed") []
             else
               match st.ep with
               | Some ep' when Netsim.Stream.is_open ep' ->
                 do_transmit ep' xrl cb
               | _ -> cb (Xrl_error.Send_failed "connection closed") []));
      ignore ep
  in
  let on_receive data =
    match Xrl_wire.decode data with
    | Ok (Xrl_wire.Reply { seq; error; args }) ->
      (match Hashtbl.find_opt st.outstanding seq with
       | Some cb ->
         Hashtbl.remove st.outstanding seq;
         cb error args
       | None -> Log.warn (fun m -> m "reply for unknown seq %d" seq))
    | Ok (Xrl_wire.Request _) -> Log.warn (fun m -> m "sender got a request")
    | Error msg -> Log.warn (fun m -> m "undecodable reply: %s" msg)
  in
  let connect () =
    st.connecting <- true;
    Netsim.Stream.connect netsim ~src:local_addr ~dst ~port (fun ep ->
        st.connecting <- false;
        match ep with
        | None -> fail_all ("connection refused by " ^ address)
        | Some ep ->
          st.ep <- Some ep;
          Netsim.Stream.on_receive ep on_receive;
          Netsim.Stream.on_close ep (fun () ->
              st.ep <- None;
              fail_all "connection closed");
          (* Drain anything queued while connecting. *)
          Queue.iter (fun (xrl, cb) -> transmit ep xrl cb) st.pending;
          Queue.clear st.pending)
  in
  let send_req xrl cb =
    if st.closed then cb (Xrl_error.Send_failed "sender closed") []
    else
      match st.ep with
      | Some ep when Netsim.Stream.is_open ep -> transmit ep xrl cb
      | _ ->
        Queue.push (xrl, cb) st.pending;
        if not st.connecting then connect ()
  in
  let close_sender () =
    st.closed <- true;
    (match st.ep with Some ep -> Netsim.Stream.close ep | None -> ());
    st.ep <- None;
    fail_all "sender closed"
  in
  { send_req; close_sender; family_of_sender = "sim" }

let family ?latency netsim ~local_addr : Pf.family =
  (* Resolve the counters when the family is created, not per listener
     or per sender: the family is built during a router's boot, so in a
     multi-router process each router's family records under that
     router's telemetry namespace. *)
  let requests_rx = Telemetry.counter "xrl.sim.requests_rx" in
  let requests_tx = Telemetry.counter "xrl.sim.requests_tx" in
  {
    family_name = "sim";
    make_listener =
      (fun loop dispatch ->
        make_listener ~requests_rx netsim ~local_addr loop dispatch);
    make_sender =
      (fun loop address ->
        make_sender ~requests_tx ?latency netsim ~local_addr loop address);
  }
