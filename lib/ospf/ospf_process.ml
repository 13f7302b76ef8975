let src = Logs.Src.create "xorp.ospf" ~doc:"link-state routing process"

module Log = (val Logs.src_log src : Logs.LOG)

let ospf_port = 2089

type neighbor_config = { n_addr : Ipv4.t; n_id : Ipv4.t; n_cost : int }
type iface_config = { o_addr : Ipv4.t; o_neighbors : neighbor_config list }

type config = {
  router_id : Ipv4.t;
  ifaces : iface_config list;
  stub_prefixes : (Ipv4net.t * int) list;
  hello_interval : float;
  dead_interval : float;
  refresh_interval : float;
}

let default_config ~router_id ~ifaces ?(stub_prefixes = []) () =
  { router_id; ifaces; stub_prefixes; hello_interval = 5.0;
    dead_interval = 20.0; refresh_interval = 60.0 }

type adjacency = {
  a_cfg : neighbor_config;
  a_ifaddr : Ipv4.t;
  mutable a_last_hello : float;
  mutable a_hears_us : bool;
  mutable a_up : bool;
  mutable a_dead_timer : Eventloop.timer option;
}

type t = {
  router : Xrl_router.t;
  loop : Eventloop.t;
  cfg : config;
  (* neighbour router-id -> adjacency *)
  adjacencies : (int, adjacency) Hashtbl.t;
  (* neighbour interface address -> adjacency (for packet demux) *)
  by_addr : (int, adjacency) Hashtbl.t;
  relay : Fea_relay.t;
  rib : Rib_client.t;
  lsdb : (int, Ospf_packet.lsa * float ref) Hashtbl.t; (* origin -> lsa, stamp *)
  mutable my_seq : int;
  mutable stubs : (Ipv4net.t * int) list;
  mutable spf_pending : bool;
  mutable spf_count : int;
  mutable started : bool;
  (* prefix -> (cost, nexthop) currently installed in the RIB *)
  installed : (Ipv4net.t, int * Ipv4.t) Hashtbl.t;
}

let lsdb_size t = Hashtbl.length t.lsdb
let spf_runs t = t.spf_count

let adjacency_up t id =
  match Hashtbl.find_opt t.adjacencies (Ipv4.to_int id) with
  | Some a -> a.a_up
  | None -> false

(* --- I/O through the FEA relay ----------------------------------------- *)

let send_packet t ~ifaddr ~dst pkt =
  Fea_relay.send t.relay ~ifaddr ~dst (Ospf_packet.encode pkt)

let iter_up_adjacencies t f =
  Hashtbl.iter (fun _ a -> if a.a_up then f a) t.adjacencies

let flood t ?except lsas =
  if lsas <> [] then
    iter_up_adjacencies t (fun a ->
        let skip =
          match except with
          | Some addr -> Ipv4.equal a.a_cfg.n_addr addr
          | None -> false
        in
        if not skip then
          send_packet t ~ifaddr:a.a_ifaddr ~dst:a.a_cfg.n_addr
            (Ospf_packet.Ls_update lsas))

(* --- RIB interaction ----------------------------------------------------- *)

let rib_add t net cost nexthop =
  Rib_client.add_route t.rib ~protocol:"ospf" ~net ~nexthop ~metric:cost

let rib_delete t net = Rib_client.delete_route t.rib ~protocol:"ospf" ~net

(* --- SPF ------------------------------------------------------------------- *)

let lsdb_views t =
  Hashtbl.fold
    (fun _ (lsa, _) acc ->
       { Spf.origin = lsa.Ospf_packet.origin;
         links =
           List.map
             (fun (n, cost) -> { Spf.to_node = n; cost })
             lsa.Ospf_packet.links;
         stubs = lsa.Ospf_packet.stubs }
       :: acc)
    t.lsdb []

let run_spf t =
  t.spf_count <- t.spf_count + 1;
  let routes = Spf.routes ~root:t.cfg.router_id (lsdb_views t) in
  (* Keep remote prefixes only, and translate the first-hop router id
     into that neighbour's interface address. *)
  let wanted = Hashtbl.create 64 in
  List.iter
    (fun (net, cost, first_hop) ->
       if not (Ipv4.equal first_hop t.cfg.router_id) then
         match Hashtbl.find_opt t.adjacencies (Ipv4.to_int first_hop) with
         | Some a when a.a_up -> Hashtbl.replace wanted net (cost, a.a_cfg.n_addr)
         | _ -> ())
    routes;
  (* Diff against what we installed. *)
  Hashtbl.iter
    (fun net (cost, nexthop) ->
       match Hashtbl.find_opt t.installed net with
       | Some (c, nh) when c = cost && Ipv4.equal nh nexthop -> ()
       | _ ->
         Hashtbl.replace t.installed net (cost, nexthop);
         rib_add t net cost nexthop)
    wanted;
  let stale =
    Hashtbl.fold
      (fun net _ acc -> if Hashtbl.mem wanted net then acc else net :: acc)
      t.installed []
  in
  List.iter
    (fun net ->
       Hashtbl.remove t.installed net;
       rib_delete t net)
    stale

(* A burst of LSAs triggers one SPF: debounced by a short timer. *)
let schedule_spf t =
  if not t.spf_pending then begin
    t.spf_pending <- true;
    ignore
      (Eventloop.after t.loop 0.05 (fun () ->
           t.spf_pending <- false;
           run_spf t))
  end

(* --- LSA origination and flooding --------------------------------------------- *)

let own_lsa t =
  { Ospf_packet.origin = t.cfg.router_id;
    seq = t.my_seq;
    links =
      Hashtbl.fold
        (fun _ a acc ->
           if a.a_up then (a.a_cfg.n_id, a.a_cfg.n_cost) :: acc else acc)
        t.adjacencies [];
    stubs = t.stubs }

let originate t =
  t.my_seq <- t.my_seq + 1;
  let lsa = own_lsa t in
  Hashtbl.replace t.lsdb (Ipv4.to_int t.cfg.router_id)
    (lsa, ref (Eventloop.now t.loop));
  flood t [ lsa ];
  schedule_spf t

let handle_lsupdate t ~src:srcaddr lsas =
  let to_flood = ref [] in
  List.iter
    (fun (lsa : Ospf_packet.lsa) ->
       if Ipv4.equal lsa.origin t.cfg.router_id then begin
         (* A copy of our own LSA came back. Copies at our current
            sequence are normal flooding echoes; only a STRICTLY newer
            one (stale survivor of a previous incarnation of this
            router) is fought back with a higher sequence number. *)
         if lsa.seq > t.my_seq then begin
           t.my_seq <- lsa.seq;
           originate t
         end
       end
       else begin
         let key = Ipv4.to_int lsa.origin in
         match Hashtbl.find_opt t.lsdb key with
         | Some (cur, stamp) when not (Ospf_packet.lsa_newer lsa.seq cur.seq) ->
           (* Stale or duplicate. If strictly older, help the sender
              catch up. *)
           stamp := Eventloop.now t.loop;
           if Ospf_packet.lsa_newer cur.seq lsa.seq then
             (match Hashtbl.find_opt t.by_addr (Ipv4.to_int srcaddr) with
              | Some a ->
                send_packet t ~ifaddr:a.a_ifaddr ~dst:srcaddr
                  (Ospf_packet.Ls_update [ cur ])
              | None -> ())
         | _ ->
           Hashtbl.replace t.lsdb key (lsa, ref (Eventloop.now t.loop));
           to_flood := lsa :: !to_flood;
           schedule_spf t
       end)
    lsas;
  flood t ~except:srcaddr !to_flood

(* --- adjacency management ------------------------------------------------------ *)

let adjacency_changed t a up =
  if a.a_up <> up then begin
    a.a_up <- up;
    Log.info (fun m ->
        m "adjacency with %s %s" (Ipv4.to_string a.a_cfg.n_id)
          (if up then "up" else "down"));
    if up then begin
      (* Database exchange, simplified: give the new neighbour our
         whole LSDB. *)
      let all = Hashtbl.fold (fun _ (lsa, _) acc -> lsa :: acc) t.lsdb [] in
      if all <> [] then
        send_packet t ~ifaddr:a.a_ifaddr ~dst:a.a_cfg.n_addr
          (Ospf_packet.Ls_update all)
    end;
    originate t
  end

let reset_dead_timer t a =
  Option.iter Eventloop.cancel a.a_dead_timer;
  a.a_dead_timer <-
    Some
      (Eventloop.after t.loop t.cfg.dead_interval (fun () ->
           a.a_hears_us <- false;
           adjacency_changed t a false))

let handle_hello t ~src:srcaddr (router_id, heard) =
  match Hashtbl.find_opt t.by_addr (Ipv4.to_int srcaddr) with
  | None ->
    Log.debug (fun m -> m "hello from unconfigured %s" (Ipv4.to_string srcaddr))
  | Some a ->
    if not (Ipv4.equal router_id a.a_cfg.n_id) then
      Log.warn (fun m ->
          m "hello from %s claims id %s, expected %s" (Ipv4.to_string srcaddr)
            (Ipv4.to_string router_id)
            (Ipv4.to_string a.a_cfg.n_id))
    else begin
      a.a_last_hello <- Eventloop.now t.loop;
      a.a_hears_us <- List.exists (Ipv4.equal t.cfg.router_id) heard;
      reset_dead_timer t a;
      adjacency_changed t a a.a_hears_us
    end

let send_hellos t =
  List.iter
    (fun iface ->
       List.iter
         (fun (n : neighbor_config) ->
            let heard =
              Hashtbl.fold
                (fun _ a acc ->
                   if
                     Eventloop.now t.loop -. a.a_last_hello
                     < t.cfg.dead_interval
                   then a.a_cfg.n_id :: acc
                   else acc)
                t.adjacencies []
            in
            send_packet t ~ifaddr:iface.o_addr ~dst:n.n_addr
              (Ospf_packet.Hello { router_id = t.cfg.router_id; heard }))
         iface.o_neighbors)
    t.cfg.ifaces

(* Drop LSAs whose origin went silent (no refresh in ~3.5 refresh
   intervals). *)
let sweep_lsdb t =
  let now = Eventloop.now t.loop in
  let stale =
    Hashtbl.fold
      (fun key ((lsa : Ospf_packet.lsa), stamp) acc ->
         if
           (not (Ipv4.equal lsa.origin t.cfg.router_id))
           && now -. !stamp > 3.5 *. t.cfg.refresh_interval
         then key :: acc
         else acc)
      t.lsdb []
  in
  if stale <> [] then begin
    List.iter (Hashtbl.remove t.lsdb) stale;
    schedule_spf t
  end

(* --- XRLs --------------------------------------------------------------------------- *)

let add_stub t net cost =
  t.stubs <- (net, cost) :: List.remove_assoc net t.stubs;
  if t.started then originate t

let recv t ~src:srcaddr payload =
  match Ospf_packet.decode payload with
  | Ok (Ospf_packet.Hello { router_id; heard }) ->
    handle_hello t ~src:srcaddr (router_id, heard)
  | Ok (Ospf_packet.Ls_update lsas) -> handle_lsupdate t ~src:srcaddr lsas
  | Error msg ->
    Log.warn (fun m ->
        m "undecodable packet from %s: %s" (Ipv4.to_string srcaddr) msg)

let add_handlers t =
  let ok = Xrl_error.Ok_xrl in
  Xrl_router.add_handler t.router ~interface:"ospf" ~method_name:"get_lsdb_size"
    (fun _ reply -> reply ok [ Xrl_atom.u32 "size" (lsdb_size t) ]);
  Xrl_router.add_handler t.router ~interface:"ospf"
    ~method_name:"get_route_count" (fun _ reply ->
        reply ok [ Xrl_atom.u32 "count" (Hashtbl.length t.installed) ]);
  Xrl_router.add_handler t.router ~interface:"ospf" ~method_name:"add_stub"
    (fun args reply ->
       let net = Xrl_atom.get_ipv4net args "net" in
       let cost =
         match Xrl_atom.find args "cost" with
         | Some { value = U32 c; _ } -> c
         | _ -> 1
       in
       add_stub t net cost;
       reply ok [])

let remove_stub t net =
  t.stubs <- List.remove_assoc net t.stubs;
  if t.started then originate t

(* --- lifecycle ------------------------------------------------------------------------ *)

(* [installed] is exactly what this process believes the RIB holds for
   protocol "ospf" — replaying it rebuilds the reborn RIB's (empty)
   origin table verbatim, with no SPF re-run needed. *)
let replay_rib t =
  Hashtbl.fold
    (fun net (cost, nexthop) n ->
       rib_add t net cost nexthop;
       n + 1)
    t.installed 0

let create ?families ?(rib_rebirth_resync = true) finder loop cfg =
  let router = Xrl_router.create ?families finder loop ~class_name:"ospf" () in
  let rec t =
    lazy
      { router; loop; cfg;
        adjacencies = Hashtbl.create 8; by_addr = Hashtbl.create 8;
        (* Every opened socket, re-opens included, says hello at once. *)
        relay =
          Fea_relay.create router ~port:ospf_port
            ~addrs:(List.map (fun iface -> iface.o_addr) cfg.ifaces)
            ~on_open:(fun _ -> send_hellos (Lazy.force t))
            ~recv:(fun ~src ~sport:_ payload -> recv (Lazy.force t) ~src payload);
        rib =
          Rib_client.create router ~resync:rib_rebirth_resync
            ~replay:(fun () -> replay_rib (Lazy.force t))
            ();
        lsdb = Hashtbl.create 32;
        my_seq = 0; stubs = cfg.stub_prefixes;
        spf_pending = false; spf_count = 0; started = false;
        installed = Hashtbl.create 64 }
  in
  let t = Lazy.force t in
  List.iter
    (fun iface ->
       List.iter
         (fun (n : neighbor_config) ->
            let a =
              { a_cfg = n; a_ifaddr = iface.o_addr; a_last_hello = -1e9;
                a_hears_us = false; a_up = false; a_dead_timer = None }
            in
            Hashtbl.replace t.adjacencies (Ipv4.to_int n.n_id) a;
            Hashtbl.replace t.by_addr (Ipv4.to_int n.n_addr) a)
         iface.o_neighbors)
    cfg.ifaces;
  add_handlers t;
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Fea_relay.start t.relay;
    originate t;
    ignore
      (Eventloop.periodic t.loop t.cfg.hello_interval (fun () ->
           if t.started then send_hellos t;
           t.started));
    ignore
      (Eventloop.periodic t.loop t.cfg.refresh_interval (fun () ->
           if t.started then begin
             originate t;
             sweep_lsdb t
           end;
           t.started))
  end

let route_table t =
  Hashtbl.fold
    (fun net (cost, nexthop) acc -> (net, cost, nexthop) :: acc)
    t.installed []
  |> List.sort (fun (a, _, _) (b, _, _) -> Ipv4net.compare a b)

let shutdown t =
  t.started <- false;
  Hashtbl.iter
    (fun _ a -> Option.iter Eventloop.cancel a.a_dead_timer)
    t.adjacencies;
  Xrl_router.shutdown t.router

let xrl_router t = t.router
