(* Like the intra-process family, but the sender refuses anything that
   is not a bare signal: one message type, no arguments (§6.3). The
   receiving side still performs the normal keyed-method check, so
   signals cannot bypass Finder resolution either. *)

let registry : (int, Pf.dispatch) Hashtbl.t = Hashtbl.create 8
let next_id = ref 0
let known_signals = [ "HUP"; "INT"; "TERM"; "USR1"; "USR2" ]

let family : Pf.family =
  {
    family_name = "kill";
    make_listener =
      (fun _loop dispatch ->
         incr next_id;
         let id = !next_id in
         Hashtbl.replace registry id dispatch;
         { Pf.address = Printf.sprintf "kill:%d" id;
           shutdown = (fun () -> Hashtbl.remove registry id) });
    make_sender =
      (fun loop address ->
         let id =
           match String.split_on_char ':' address with
           | [ "kill"; id ] ->
             (match int_of_string_opt id with
              | Some id -> id
              | None -> invalid_arg ("Pf_kill: bad address " ^ address))
           | _ -> invalid_arg ("Pf_kill: bad address " ^ address)
         in
         let send_req (xrl : Xrl.t) cb =
           let signal =
             match String.rindex_opt xrl.method_name '@' with
             | Some i -> String.sub xrl.method_name 0 i
             | None -> xrl.method_name
           in
           if xrl.interface <> "signal" then
             cb (Xrl_error.Bad_args "the kill family only carries signals") []
           else if xrl.args <> [] then
             cb (Xrl_error.Bad_args "signals take no arguments") []
           else if not (List.mem signal known_signals) then
             cb (Xrl_error.Bad_args ("unknown signal " ^ signal)) []
           else
             (* Defer dispatch through the event loop: a synchronous
                dispatch would run the receiver's handler (and its
                reply) inside the caller's send, re-entering the caller
                mid-operation. Validation errors above stay synchronous
                — they involve no peer code. The registry is consulted
                at dispatch time, so a target that shuts down between
                send and dispatch fails cleanly. *)
             Eventloop.defer loop (fun () ->
                 match Hashtbl.find_opt registry id with
                 | Some dispatch -> dispatch xrl cb
                 | None -> cb (Xrl_error.Send_failed "kill target gone") [])
         in
         { Pf.send_req; close_sender = (fun () -> ());
           family_of_sender = "kill" });
  }

let make_signalable router ~on_signal =
  List.iter
    (fun signal ->
       Xrl_router.add_handler router ~interface:"signal" ~method_name:signal
         (fun _args reply ->
            on_signal signal;
            reply Xrl_error.Ok_xrl []))
    known_signals

let send_signal router ~target ~signal cb =
  let xrl = Xrl.make ~target ~interface:"signal" ~method_name:signal [] in
  Xrl_router.send router xrl (fun err _ -> cb err)
