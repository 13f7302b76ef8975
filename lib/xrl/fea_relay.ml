let src = Logs.Src.create "xorp.fea_relay" ~doc:"protocol-side FEA UDP relay"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  router : Xrl_router.t;
  port : int;
  addrs : Ipv4.t list;
  on_open : Ipv4.t -> unit;
  socks : (int, int) Hashtbl.t; (* local address -> FEA sockid *)
  mutable started : bool;
}

let open_retry =
  { Xrl_router.default_retry with
    max_attempts = 10; base_delay = 0.25; max_delay = 2.0;
    attempt_timeout = Some 2.0 }

let open_socket t addr =
  let xrl =
    Xrl.make ~target:"fea" ~interface:"fea_udp" ~method_name:"udp_open"
      [ Xrl_atom.txt "client_target" (Xrl_router.instance_name t.router);
        Xrl_atom.ipv4 "addr" addr;
        Xrl_atom.u32 "port" t.port ]
  in
  Xrl_router.send ~retry:open_retry t.router xrl (fun err args ->
      if Xrl_error.is_ok err then begin
        Hashtbl.replace t.socks (Ipv4.to_int addr)
          (Xrl_atom.get_u32 args "sockid");
        t.on_open addr
      end
      else
        Log.err (fun m ->
            m "udp_open on %s failed: %s" (Ipv4.to_string addr)
              (Xrl_error.to_string err)))

let start t =
  if not t.started then begin
    t.started <- true;
    List.iter (open_socket t) t.addrs
  end

let send t ~ifaddr ~dst payload =
  match Hashtbl.find_opt t.socks (Ipv4.to_int ifaddr) with
  | None ->
    Log.debug (fun m ->
        m "no relay socket on %s; datagram dropped" (Ipv4.to_string ifaddr))
  | Some sockid ->
    let xrl =
      Xrl.make ~target:"fea" ~interface:"fea_udp" ~method_name:"udp_send"
        [ Xrl_atom.u32 "sockid" sockid;
          Xrl_atom.ipv4 "dst" dst;
          Xrl_atom.u32 "dport" t.port;
          Xrl_atom.binary "payload" payload ]
    in
    Xrl_router.send t.router xrl (fun err _ ->
        if not (Xrl_error.is_ok err) then
          Log.warn (fun m ->
              m "udp_send to %s failed: %s" (Ipv4.to_string dst)
                (Xrl_error.to_string err)))

let create router ~port ~addrs ~on_open ~recv =
  let t =
    { router; port; addrs; on_open; socks = Hashtbl.create 4; started = false }
  in
  Xrl_router.add_handler router ~interface:"fea_client" ~method_name:"recv"
    (fun args reply ->
       let src = Xrl_atom.get_ipv4 args "src" in
       let sport = Xrl_atom.get_u32 args "sport" in
       recv ~src ~sport (Xrl_atom.get_binary args "payload");
       reply Xrl_error.Ok_xrl []);
  Xrl_router.watch_peer router ~cls:"fea"
    ~on_death:(fun () -> Hashtbl.reset t.socks)
    ~on_rebirth:(fun () -> if t.started then List.iter (open_socket t) addrs)
    ();
  t
