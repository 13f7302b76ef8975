let src = Logs.Src.create "xorp.rip" ~doc:"RIP process"

module Log = (val Logs.src_log src : Logs.LOG)

let rip_port = 520
let infinity = Rip_packet.infinity_metric

type iface = { if_addr : Ipv4.t; if_neighbors : Ipv4.t list }

type config = {
  ifaces : iface list;
  update_interval : float;
  timeout : float;
  gc_time : float;
  triggered_delay : float;
}

let default_config ~ifaces =
  { ifaces; update_interval = 30.0; timeout = 180.0; gc_time = 120.0;
    triggered_delay = 1.0 }

type rip_route = {
  rnet : Ipv4net.t;
  mutable rnexthop : Ipv4.t;
  mutable rmetric : int;
  mutable rtag : int;
  mutable rsrc : Ipv4.t; (* zero = locally originated / redistributed *)
  mutable expiry : Eventloop.timer option;
  mutable gc : Eventloop.timer option;
  mutable changed : bool;
}

type t = {
  router : Xrl_router.t;
  loop : Eventloop.t;
  cfg : config;
  rng : Rng.t;
  db : rip_route Ptree.t;
  (* neighbor address -> local interface address *)
  neighbor_iface : (int, Ipv4.t) Hashtbl.t;
  relay : Fea_relay.t;
  rib : Rib_client.t;
  mutable started : bool;
  mutable trigger_pending : bool;
  mutable tx_updates : int;
  mutable rx_updates : int;
  mutable tx_triggered : int;
  mutable expired : int;
}

(* --- FEA I/O ---------------------------------------------------------- *)

let send_packet t ~ifaddr ~dst packet =
  Fea_relay.send t.relay ~ifaddr ~dst (Rip_packet.encode packet)

let send_to_neighbor t ~dst packets =
  match Hashtbl.find_opt t.neighbor_iface (Ipv4.to_int dst) with
  | None -> ()
  | Some ifaddr -> List.iter (fun p -> send_packet t ~ifaddr ~dst p) packets

let iter_neighbors t f =
  Hashtbl.iter (fun naddr ifaddr -> f (Ipv4.of_int naddr) ifaddr) t.neighbor_iface

(* --- RIB interaction --------------------------------------------------- *)

(* The RIB holds exactly the live learned routes: locally originated
   and redistributed entries ([rsrc] = zero) reach it from their true
   origin protocol. Read it before changing a route, to push a
   well-formed stream. *)
let in_rib r = r.rmetric < infinity && not (Ipv4.equal r.rsrc Ipv4.zero)

let to_rib (r : rip_route) =
  { Route_pack.net = r.rnet; nexthop = r.rnexthop; ifname = "";
    protocol = "rip"; metric = r.rmetric }

(* RIP changes are few and each is news: all urgent. *)
let rib_push t change r = Rib_client.push t.rib Laneq.Urgent change (to_rib r)

(* A learned route's new state, over what the RIB [held] before. *)
let rib_learned t ~held r =
  rib_push t (if held then Laneq.Replace else Laneq.Add) r

(* --- update generation -------------------------------------------------- *)

(* Advertised entries for one neighbor: split horizon with poisoned
   reverse — routes learned from that neighbor go out with metric 16. *)
let entries_for_neighbor t ~neighbor ?(changed_only = false) () =
  Ptree.fold
    (fun _ r acc ->
       if changed_only && not r.changed then acc
       else
         let metric =
           if Ipv4.equal r.rsrc neighbor then infinity else r.rmetric
         in
         { Rip_packet.net = r.rnet; nexthop = Ipv4.zero; metric; tag = r.rtag }
         :: acc)
    t.db []
  |> List.rev

let send_full_update t ~dst =
  let entries = entries_for_neighbor t ~neighbor:dst () in
  if entries <> [] then begin
    t.tx_updates <- t.tx_updates + 1;
    send_to_neighbor t ~dst (Rip_packet.split Rip_packet.Response entries)
  end

let clear_changed t =
  Ptree.iter (fun _ r -> r.changed <- false) t.db

let send_triggered t =
  let any = Ptree.fold (fun _ r acc -> acc || r.changed) t.db false in
  if any then begin
    iter_neighbors t (fun naddr _ ->
        let entries = entries_for_neighbor t ~neighbor:naddr ~changed_only:true () in
        if entries <> [] then begin
          t.tx_triggered <- t.tx_triggered + 1;
          send_to_neighbor t ~dst:naddr
            (Rip_packet.split Rip_packet.Response entries)
        end);
    clear_changed t
  end

(* Triggered updates are suppressed: at most one batch per
   triggered_delay (RFC 2453 §3.10.1). *)
let schedule_trigger t =
  if t.started && not t.trigger_pending then begin
    t.trigger_pending <- true;
    ignore
      (Eventloop.after t.loop t.cfg.triggered_delay (fun () ->
           t.trigger_pending <- false;
           send_triggered t))
  end

(* --- route state machine -------------------------------------------------- *)

let cancel_timers r =
  Option.iter Eventloop.cancel r.expiry;
  Option.iter Eventloop.cancel r.gc;
  r.expiry <- None;
  r.gc <- None

let rec start_gc t r =
  Option.iter Eventloop.cancel r.gc;
  r.gc <-
    Some
      (Eventloop.after t.loop t.cfg.gc_time (fun () ->
           ignore (Ptree.remove t.db r.rnet)))

and kill_route t r =
  (* Deletion process: metric 16, advertise the death, gc later. *)
  if r.rmetric < infinity then begin
    if in_rib r then rib_push t Laneq.Delete r;
    r.rmetric <- infinity;
    r.changed <- true;
    schedule_trigger t
  end;
  Option.iter Eventloop.cancel r.expiry;
  r.expiry <- None;
  start_gc t r

and start_expiry t r =
  Option.iter Eventloop.cancel r.expiry;
  r.expiry <-
    Some
      (Eventloop.after t.loop t.cfg.timeout (fun () ->
           t.expired <- t.expired + 1;
           kill_route t r))

let upsert_learned t ~net ~src:srcaddr ~metric ~tag =
  match Ptree.find t.db net with
  | None ->
    if metric < infinity then begin
      let r =
        { rnet = net; rnexthop = srcaddr; rmetric = metric; rtag = tag;
          rsrc = srcaddr; expiry = None; gc = None; changed = true }
      in
      ignore (Ptree.insert t.db net r);
      start_expiry t r;
      rib_push t Laneq.Add r;
      schedule_trigger t
    end
  | Some r ->
    if Ipv4.equal r.rsrc Ipv4.zero then
      (* Locally originated routes are never overridden by the wire. *)
      ()
    else if Ipv4.equal r.rsrc srcaddr then begin
      (* Same router: always believe it. *)
      if metric >= infinity then begin
        if r.rmetric < infinity then kill_route t r
        else start_gc t r
      end
      else begin
        Option.iter Eventloop.cancel r.gc;
        r.gc <- None;
        start_expiry t r;
        if metric <> r.rmetric then begin
          let held = in_rib r in
          r.rmetric <- metric;
          r.changed <- true;
          rib_learned t ~held r;
          schedule_trigger t
        end
      end
    end
    else if metric < r.rmetric then begin
      (* Strictly better route from another router. *)
      let held = in_rib r in
      cancel_timers r;
      r.rsrc <- srcaddr;
      r.rnexthop <- srcaddr;
      r.rmetric <- metric;
      r.rtag <- tag;
      r.changed <- true;
      start_expiry t r;
      rib_learned t ~held r;
      schedule_trigger t
    end

let handle_response t ~src:srcaddr (pkt : Rip_packet.t) =
  if not (Hashtbl.mem t.neighbor_iface (Ipv4.to_int srcaddr)) then
    Log.debug (fun m ->
        m "response from unconfigured %s ignored" (Ipv4.to_string srcaddr))
  else begin
    t.rx_updates <- t.rx_updates + 1;
    List.iter
      (fun (e : Rip_packet.entry) ->
         let metric = min (e.metric + 1) infinity in
         upsert_learned t ~net:e.net ~src:srcaddr ~metric ~tag:e.tag)
      pkt.Rip_packet.entries
  end

let handle_request t ~src:srcaddr ~sport (pkt : Rip_packet.t) =
  ignore sport;
  if Rip_packet.is_whole_table_request pkt then send_full_update t ~dst:srcaddr
  else begin
    (* Specific query: echo the entries with our metrics (16 if
       unknown); no split horizon on specific queries (RFC 2453
       §3.9.1). *)
    let entries =
      List.map
        (fun (e : Rip_packet.entry) ->
           match Ptree.find t.db e.Rip_packet.net with
           | Some r -> { e with Rip_packet.metric = r.rmetric; tag = r.rtag }
           | None -> { e with Rip_packet.metric = infinity })
        pkt.Rip_packet.entries
    in
    send_to_neighbor t ~dst:srcaddr (Rip_packet.split Rip_packet.Response entries)
  end

(* --- local origination ---------------------------------------------------- *)

let inject t ~net ?(metric = 1) ?(tag = 0) () =
  let metric = max 1 (min metric (infinity - 1)) in
  (match Ptree.find t.db net with
   | Some r ->
     (* A learned route turned local leaves the RIB's rip table. *)
     if in_rib r then rib_push t Laneq.Delete r;
     cancel_timers r;
     r.rsrc <- Ipv4.zero;
     r.rnexthop <- Ipv4.zero;
     r.rmetric <- metric;
     r.rtag <- tag;
     r.changed <- true
   | None ->
     ignore
       (Ptree.insert t.db net
          { rnet = net; rnexthop = Ipv4.zero; rmetric = metric; rtag = tag;
            rsrc = Ipv4.zero; expiry = None; gc = None; changed = true }));
  schedule_trigger t

let retract t net =
  match Ptree.find t.db net with
  | Some r when Ipv4.equal r.rsrc Ipv4.zero -> kill_route t r
  | _ -> ()

(* --- XRL interface ---------------------------------------------------------- *)

let recv t ~src:srcaddr ~sport payload =
  match Rip_packet.decode payload with
  | Ok pkt ->
    (match pkt.Rip_packet.command with
     | Rip_packet.Response ->
       if sport = rip_port then handle_response t ~src:srcaddr pkt
       else Log.debug (fun m -> m "response from non-520 port %d ignored" sport)
     | Rip_packet.Request -> handle_request t ~src:srcaddr ~sport pkt)
  | Error msg ->
    Log.warn (fun m ->
        m "undecodable RIP packet from %s: %s" (Ipv4.to_string srcaddr) msg)

let redistributed t : Rib_client.redist -> unit = function
  | Add { net; metric; tag } -> inject t ~net ~metric:(max 1 metric) ~tag ()
  | Delete net -> retract t net

let add_handlers t =
  let ok = Xrl_error.Ok_xrl in
  Xrl_router.add_handler t.router ~interface:"rip"
    ~method_name:"add_static_route" (fun args reply ->
        let net = Xrl_atom.get_ipv4net args "net" in
        let metric =
          match Xrl_atom.find args "metric" with
          | Some { value = U32 m; _ } -> m
          | _ -> 1
        in
        inject t ~net ~metric ();
        reply ok []);
  Xrl_router.add_handler t.router ~interface:"rip"
    ~method_name:"get_route_count" (fun _ reply ->
        let live =
          Ptree.fold
            (fun _ r acc -> if r.rmetric < infinity then acc + 1 else acc)
            t.db 0
        in
        reply ok [ Xrl_atom.u32 "count" live ])

(* --- lifecycle ----------------------------------------------------------------- *)

(* A relay socket opened (or re-opened on an FEA rebirth): solicit
   full tables from the neighbours on that interface. *)
let solicit t ifaddr =
  List.iter
    (fun iface ->
       if Ipv4.equal iface.if_addr ifaddr then
         List.iter
           (fun n -> send_packet t ~ifaddr ~dst:n Rip_packet.whole_table_request)
           iface.if_neighbors)
    t.cfg.ifaces

(* Only what the RIB held is re-announced ([in_rib]): replaying a
   local or redistributed entry would double-count it. *)
let replay_rib t add =
  Ptree.iter (fun _ r -> if in_rib r then add (to_rib r)) t.db

let create ?families ?(rib_rebirth_resync = true) finder loop cfg =
  let router = Xrl_router.create ?families finder loop ~class_name:"rip" () in
  let rec t =
    lazy
      { router; loop; cfg; rng = Rng.create 17 (* update jitter *);
        db = Ptree.create ();
        neighbor_iface = Hashtbl.create 8;
        relay =
          Fea_relay.create router ~port:rip_port
            ~addrs:(List.map (fun iface -> iface.if_addr) cfg.ifaces)
            ~on_open:(fun ifaddr -> solicit (Lazy.force t) ifaddr)
            ~recv:(fun ~src ~sport payload ->
                recv (Lazy.force t) ~src ~sport payload);
        rib =
          Rib_client.create router ~resync:rib_rebirth_resync
            ~redist:(fun r -> redistributed (Lazy.force t) r)
            ~replay:(fun add -> replay_rib (Lazy.force t) add)
            ();
        started = false; trigger_pending = false;
        tx_updates = 0; rx_updates = 0; tx_triggered = 0; expired = 0 }
  in
  let t = Lazy.force t in
  List.iter
    (fun iface ->
       List.iter
         (fun n ->
            Hashtbl.replace t.neighbor_iface (Ipv4.to_int n) iface.if_addr)
         iface.if_neighbors)
    cfg.ifaces;
  add_handlers t;
  t

let periodic_update t =
  iter_neighbors t (fun naddr _ -> send_full_update t ~dst:naddr);
  clear_changed t

let start t =
  if not t.started then begin
    t.started <- true;
    Fea_relay.start t.relay;
    (* Jittered periodic updates: interval ±17%, re-jittered per round
       via a chained timer. *)
    let rec arm () =
      let jitter =
        t.cfg.update_interval *. (0.83 +. (Rng.float t.rng *. 0.34))
      in
      ignore
        (Eventloop.after t.loop jitter (fun () ->
             if t.started then begin
               periodic_update t;
               arm ()
             end))
    in
    arm ()
  end

let subscribe_rib_redistribution t ~policy =
  Rib_client.subscribe_redistribution t.rib ~policy

(* --- inspection -------------------------------------------------------------------- *)

let route_count t =
  Ptree.fold (fun _ r acc -> if r.rmetric < infinity then acc + 1 else acc) t.db 0

let lookup t net =
  match Ptree.find t.db net with
  | Some r when r.rmetric < infinity -> Some (r.rmetric, r.rnexthop)
  | _ -> None

let routes t =
  Ptree.fold
    (fun _ r acc ->
       if r.rmetric < infinity then (r.rnet, r.rmetric, r.rnexthop) :: acc
       else acc)
    t.db []
  |> List.rev

let updates_sent t = t.tx_updates
let updates_received t = t.rx_updates
let triggered_updates_sent t = t.tx_triggered
let routes_expired t = t.expired

let shutdown t =
  t.started <- false;
  Ptree.iter (fun _ r -> cancel_timers r) t.db;
  Xrl_router.shutdown t.router

let xrl_router t = t.router
