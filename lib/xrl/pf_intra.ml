let registry : (int, Pf.dispatch) Hashtbl.t = Hashtbl.create 16
let next_id = ref 0

let make_listener _loop dispatch : Pf.listener =
  incr next_id;
  let id = !next_id in
  Hashtbl.replace registry id dispatch;
  { address = Printf.sprintf "intra:%d" id;
    shutdown = (fun () -> Hashtbl.remove registry id) }

let parse_address address =
  match String.split_on_char ':' address with
  | [ "intra"; id ] ->
    (match int_of_string_opt id with
     | Some id -> id
     | None -> invalid_arg ("Pf_intra: bad address " ^ address))
  | _ -> invalid_arg ("Pf_intra: bad address " ^ address)

let make_sender _loop address : Pf.sender =
  let id = parse_address address in
  (* Metric handle resolved once per sender, not per call. *)
  let calls = Telemetry.counter "xrl.intra.calls" in
  let send_req xrl cb =
    if Telemetry.is_enabled () then Telemetry.incr calls;
    (* Looked up per call: the receiver may have shut down since the
       sender was created. *)
    match Hashtbl.find_opt registry id with
    | Some dispatch -> dispatch xrl cb
    | None -> cb (Xrl_error.Send_failed ("intra target gone: " ^ address)) []
  in
  { send_req; close_sender = (fun () -> ()); family_of_sender = "x-intra" }

let family : Pf.family =
  { family_name = "x-intra"; make_listener; make_sender }
