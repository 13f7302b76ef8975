let src = Logs.Src.create "xorp.netsim" ~doc:"camlXORP network simulator"

module Log = (val Logs.src_log src : Logs.LOG)

(* Listeners and datagram sockets are keyed by their (address, port)
   packed into one int: the 32-bit address below the port, distinct for
   every port under 2^30 (the simulated XRL family numbers its ports
   from a counter, so they can pass 65,535). *)
let key addr port = (port lsl 32) lor Ipv4.to_int addr

module Port_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Multiply, then keep the high bits, so the table's low-bit bucket
     index depends on the address as well as the port. *)
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 31
end)

type stream_endpoint = {
  net : t;
  latency : float;
  ep_local : Ipv4.t * int;
  ep_remote : Ipv4.t * int;
  mutable peer : stream_endpoint option;
  mutable ep_open : bool;
  mutable recv_cb : string -> unit;
  mutable close_cb : unit -> unit;
  (* Segments in flight TOWARD this endpoint. Each delivery timer pops
     the head, so delivery is FIFO in send order even when several
     segments share a deadline and the seeded timer tie-break shuffles
     their timers: a stream is TCP-like, it never reorders. *)
  inflight : segment Queue.t;
}

and segment = Seg_data of string | Seg_close

and dgram_socket = {
  dnet : t;
  d_local : Ipv4.t * int;
  mutable d_open : bool;
  mutable drecv_cb : src:Ipv4.t -> sport:int -> string -> unit;
}

and t = {
  loop : Eventloop.t;
  default_latency : float;
  listeners : listener_rec Port_tbl.t;
  dsockets : dgram_socket Port_tbl.t;
  (* Administratively-down links, keyed by the unordered address pair.
     While a pair is cut, connects fail, datagrams vanish, and any
     stream crossing the pair was severed when the cut landed. *)
  cuts : (int * int, unit) Hashtbl.t;
  (* Stream endpoints, newest first, so a link cut can find and sever
     the connections crossing it. [open_streams] of them are open; the
     closed ones are dropped whenever they outnumber the open ones by
     more than [stream_slack], and on every cut. *)
  mutable streams : stream_endpoint list;
  mutable n_streams : int;
  mutable open_streams : int;
  mutable loss_rng : Rng.t;
  mutable ephemeral : int;
}

and listener_rec = {
  l_net : t;
  l_key : int;
  accept_cb : stream_endpoint -> unit;
  mutable l_open : bool;
}

let create ?(default_latency = 0.001) loop =
  {
    loop;
    default_latency;
    listeners = Port_tbl.create 16;
    dsockets = Port_tbl.create 16;
    cuts = Hashtbl.create 8;
    streams = [];
    n_streams = 0;
    open_streams = 0;
    loss_rng = Rng.create 7;
    ephemeral = 49152;
  }

let set_loss_seed t seed = t.loss_rng <- Rng.create seed

let addr_pair a b =
  let x = Ipv4.to_int a and y = Ipv4.to_int b in
  if x <= y then (x, y) else (y, x)

(* Most worlds never cut a link: skip the pair hash for them. *)
let link_cut t ~a ~b =
  Hashtbl.length t.cuts > 0 && Hashtbl.mem t.cuts (addr_pair a b)

let stream_slack = 64

let compact_streams t =
  t.streams <- List.filter (fun ep -> ep.ep_open) t.streams;
  t.n_streams <- t.open_streams

(* The one place an endpoint stops being open. A closed endpoint keeps
   no callbacks: its peer, and the registry until the next compaction,
   still reach it, and must not keep its dead owner alive. *)
let shut ep =
  if ep.ep_open then begin
    ep.ep_open <- false;
    ep.recv_cb <- (fun _ -> ());
    ep.close_cb <- (fun () -> ());
    let t = ep.net in
    t.open_streams <- t.open_streams - 1;
    if t.n_streams > (2 * t.open_streams) + stream_slack then compact_streams t
  end

(* Shut [ep], then run the close callback it had. *)
let shut_notify ep =
  let close_cb = ep.close_cb in
  shut ep;
  close_cb ()

module Stream = struct
  type endpoint = stream_endpoint
  type listener = listener_rec

  let listen net ~addr ~port accept_cb =
    let k = key addr port in
    if Port_tbl.mem net.listeners k then
      invalid_arg
        (Printf.sprintf "Netsim.Stream.listen: %s:%d already bound"
           (Ipv4.to_string addr) port);
    let l = { l_net = net; l_key = k; accept_cb; l_open = true } in
    Port_tbl.replace net.listeners k l;
    l

  let unlisten l =
    if l.l_open then begin
      l.l_open <- false;
      Port_tbl.remove l.l_net.listeners l.l_key
    end

  let connect net ?latency ~src:srcaddr ~dst ~port cb =
    let latency = Option.value latency ~default:net.default_latency in
    let attempt () =
      if link_cut net ~a:srcaddr ~b:dst then
        (* The SYN dies on the cut wire; the caller times out as if
           nothing listened there. *)
        ignore (Eventloop.after net.loop latency (fun () -> cb None))
      else
      match Port_tbl.find_opt net.listeners (key dst port) with
      | Some l when l.l_open ->
        net.ephemeral <- net.ephemeral + 1;
        let sport = net.ephemeral in
        let client =
          { net; latency; ep_local = (srcaddr, sport); ep_remote = (dst, port);
            peer = None; ep_open = true;
            recv_cb = (fun _ -> ()); close_cb = (fun () -> ());
            inflight = Queue.create () }
        in
        let server =
          { net; latency; ep_local = (dst, port); ep_remote = (srcaddr, sport);
            peer = Some client; ep_open = true;
            recv_cb = (fun _ -> ()); close_cb = (fun () -> ());
            inflight = Queue.create () }
        in
        client.peer <- Some server;
        net.streams <- client :: server :: net.streams;
        net.n_streams <- net.n_streams + 2;
        net.open_streams <- net.open_streams + 2;
        (* SYN-ACK: the client learns of success one more latency
           later. Schedule this before invoking the accept callback so
           that, at equal deadlines, the client attaches its receive
           handler before any data the server sends from inside its
           accept callback can arrive. *)
        ignore (Eventloop.after net.loop latency (fun () -> cb (Some client)));
        l.accept_cb server
      | _ -> ignore (Eventloop.after net.loop latency (fun () -> cb None))
    in
    (* SYN takes one latency to reach the listener. *)
    ignore (Eventloop.after net.loop latency attempt)

  (* Queue one segment toward [peer] and schedule one delivery; the
     timer delivers whatever is at the head, preserving send order. *)
  let transmit net peer latency seg =
    Queue.push seg peer.inflight;
    ignore
      (Eventloop.after net.loop latency (fun () ->
           match Queue.take_opt peer.inflight with
           | Some (Seg_data d) -> if peer.ep_open then peer.recv_cb d
           | Some Seg_close -> if peer.ep_open then shut_notify peer
           | None -> ()))

  let send ep data =
    if ep.ep_open then
      match ep.peer with
      | Some peer -> transmit ep.net peer ep.latency (Seg_data data)
      | None -> ()

  (* A closed endpoint never calls back, so it takes no callbacks. *)
  let on_receive ep cb = if ep.ep_open then ep.recv_cb <- cb
  let on_close ep cb = if ep.ep_open then ep.close_cb <- cb

  (* The close notification rides the stream behind any data still in
     flight, like a FIN. *)
  let close ep =
    if ep.ep_open then begin
      shut ep;
      match ep.peer with
      | Some peer -> transmit ep.net peer ep.latency Seg_close
      | None -> ()
    end

  let sever ep =
    shut ep;
    match ep.peer with
    | Some peer ->
      shut peer;
      (* Whatever was in flight dies with the wire. *)
      Queue.clear peer.inflight;
      Queue.clear ep.inflight
    | None -> ()

  let is_open ep = ep.ep_open
  let local_addr ep = fst ep.ep_local
  let remote_addr ep = fst ep.ep_remote
  let registered net = net.n_streams
end

let cut_link ?(reset = false) t ~a ~b =
  Hashtbl.replace t.cuts (addr_pair a b) ();
  let pair = addr_pair a b in
  let crossing ep =
    ep.ep_open && addr_pair (fst ep.ep_local) (fst ep.ep_remote) = pair
  in
  List.iter
    (fun ep ->
      if crossing ep then
        if reset then begin
          (* A detectable link-down: both ends learn immediately, as
             if the interface went down under the socket. *)
          (match ep.peer with
          | Some peer when peer.ep_open ->
            Queue.clear peer.inflight;
            shut_notify peer
          | _ -> ());
          if ep.ep_open then begin
            Queue.clear ep.inflight;
            shut_notify ep
          end
        end
        else Stream.sever ep)
    t.streams;
  (* Compact the registry while we're here; closed endpoints can never
     matter again. *)
  compact_streams t

let heal_link t ~a ~b = Hashtbl.remove t.cuts (addr_pair a b)

module Dgram = struct
  type socket = dgram_socket

  let bind net ~addr ~port =
    let k = key addr port in
    if Port_tbl.mem net.dsockets k then
      invalid_arg
        (Printf.sprintf "Netsim.Dgram.bind: %s:%d already bound"
           (Ipv4.to_string addr) port);
    let s =
      { dnet = net; d_local = (addr, port); d_open = true;
        drecv_cb = (fun ~src:_ ~sport:_ _ -> ()) }
    in
    Port_tbl.replace net.dsockets k s;
    s

  let on_receive s cb = s.drecv_cb <- cb

  let sendto s ?latency ?(loss = 0.0) ~dst ~dport data =
    if not s.d_open then ()
    else begin
      let net = s.dnet in
      let latency = Option.value latency ~default:net.default_latency in
      let srcaddr, sport = s.d_local in
      let dropped =
        link_cut net ~a:srcaddr ~b:dst
        || (loss > 0.0 && Rng.float net.loss_rng < loss)
      in
      if dropped then
        Log.debug (fun m ->
            m "dropping datagram to %s:%d" (Ipv4.to_string dst) dport)
      else
        let k = key dst dport in
        ignore
          (Eventloop.after net.loop latency (fun () ->
               match Port_tbl.find net.dsockets k with
               | d -> if d.d_open then d.drecv_cb ~src:srcaddr ~sport data
               | exception Not_found -> ()))
    end

  let close s =
    if s.d_open then begin
      s.d_open <- false;
      let addr, port = s.d_local in
      Port_tbl.remove s.dnet.dsockets (key addr port)
    end

  let local_addr s = fst s.d_local
  let local_port s = snd s.d_local
end
