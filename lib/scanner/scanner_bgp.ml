let src = Logs.Src.create "xorp.scanner" ~doc:"scanner-based BGP baseline"

module Log = (val Logs.src_log src : Logs.LOG)

type speer = {
  s_cfg_peer : Ipv4.t;
  s_cfg_local : Ipv4.t;
  s_peer_as : int;
  s_info : Bgp_types.peer_info;
  s_fsm : Peer_fsm.t;
  s_adj_in : (Ipv4net.t, Bgp_types.attrs) Hashtbl.t;
  s_adj_out : (Ipv4net.t, Bgp_types.attrs) Hashtbl.t;
  s_passive : bool;
  mutable s_retry : Eventloop.timer option;
  mutable s_synced : bool; (* full table sent since establishment? *)
}

type t = {
  loop : Eventloop.t;
  netsim : Netsim.t;
  local_as : int;
  bgp_id : Ipv4.t;
  bgp_port : int;
  scan_interval : float;
  scan_offset : float;
  peers : (int, speer) Hashtbl.t;
  local_nets : (Ipv4net.t, unit) Hashtbl.t;
  (* best routes as of the last scan: net -> (attrs, from peer_id) *)
  table : (Ipv4net.t, Bgp_types.attrs * int) Hashtbl.t;
  mutable next_peer_id : int;
  mutable dirty : bool;
  mutable scans : int;
  mutable started : bool;
  mutable listener : Netsim.Stream.listener list;
}

let create loop netsim ~local_as ~bgp_id ?(scan_interval = 30.0)
    ?(scan_offset = 0.0) ?(bgp_port = 179) () =
  { loop; netsim; local_as; bgp_id; bgp_port; scan_interval; scan_offset;
    peers = Hashtbl.create 8; local_nets = Hashtbl.create 16;
    table = Hashtbl.create 1024; next_peer_id = 0; dirty = false;
    scans = 0; started = false; listener = [] }

let find_peer t addr = Hashtbl.find_opt t.peers (Ipv4.to_int addr)

(* Incoming updates are only stored; processing waits for the scanner.
   This is the crucial difference from the event-driven design. *)
let handle_update t peer (msg : Bgp_packet.msg) =
  match msg with
  | Bgp_packet.Update { withdrawn; attrs; nlri } ->
    List.iter (fun net -> Hashtbl.remove peer.s_adj_in net) withdrawn;
    (match attrs with
     | Some a when nlri <> [] ->
       if not (Aspath.contains a.Bgp_types.aspath t.local_as) then
         List.iter (fun net -> Hashtbl.replace peer.s_adj_in net a) nlri
     | _ -> ());
    t.dirty <- true
  | _ -> ()

let rec schedule_redial t peer =
  (match peer.s_retry with Some tm -> Eventloop.cancel tm | None -> ());
  peer.s_retry <- Some (Eventloop.after t.loop 5.0 (fun () -> dial t peer))

and dial t peer =
  if Peer_fsm.state peer.s_fsm = Peer_fsm.Idle then begin
    Peer_fsm.start_active peer.s_fsm;
    Netsim.Stream.connect t.netsim ~src:peer.s_cfg_local ~dst:peer.s_cfg_peer
      ~port:t.bgp_port (fun ep ->
          match ep with
          | Some ep -> Peer_fsm.attach_stream peer.s_fsm ep
          | None ->
            Peer_fsm.transport_failed peer.s_fsm;
            schedule_redial t peer)
  end

let add_peer t ~peer_addr ~local_addr ~peer_as ?passive () =
  t.next_peer_id <- t.next_peer_id + 1;
  let passive =
    match passive with
    | Some p -> p
    | None -> Ipv4.compare local_addr peer_addr > 0
  in
  let info =
    { Bgp_types.peer_id = t.next_peer_id; peer_addr; peer_as;
      kind =
        (if peer_as = t.local_as then Bgp_types.Ibgp else Bgp_types.Ebgp);
      peer_bgp_id = peer_addr }
  in
  let rec peer =
    lazy
      { s_cfg_peer = peer_addr; s_cfg_local = local_addr; s_peer_as = peer_as;
        s_info = info;
        s_fsm =
          Peer_fsm.create t.loop
            { Peer_fsm.local_as = t.local_as; bgp_id = t.bgp_id;
              peer_as; hold_time = 90.0 }
            {
              Peer_fsm.on_established =
                (fun () ->
                   let p = Lazy.force peer in
                   p.s_synced <- false;
                   Hashtbl.reset p.s_adj_out;
                   t.dirty <- true);
              on_update = (fun msg -> handle_update t (Lazy.force peer) msg);
              on_down =
                (fun _reason ->
                   let p = Lazy.force peer in
                   Hashtbl.reset p.s_adj_in;
                   t.dirty <- true;
                   if not p.s_passive then schedule_redial t p
                   else Peer_fsm.start_passive p.s_fsm);
            };
        s_adj_in = Hashtbl.create 1024; s_adj_out = Hashtbl.create 1024;
        s_passive = passive; s_retry = None; s_synced = true }
  in
  let peer = Lazy.force peer in
  Hashtbl.replace t.peers (Ipv4.to_int peer_addr) peer;
  if t.started then (if passive then Peer_fsm.start_passive peer.s_fsm else dial t peer)

let originate t net =
  Hashtbl.replace t.local_nets net ();
  t.dirty <- true

(* --- the scanner itself ------------------------------------------------ *)

let local_attrs t =
  { (Bgp_types.default_attrs ~nexthop:t.bgp_id) with
    Bgp_types.localpref = Some 100 }

let local_info t =
  Bgp_types.local_peer_info ~local_as:t.local_as ~bgp_id:t.bgp_id

(* Recompute every best route, then push deltas to every peer —
   one big batch, the way periodic scanners behave. *)
let scan t =
  t.scans <- t.scans + 1;
  let candidates : (Ipv4net.t, (Bgp_types.route * Bgp_types.peer_info) list) Hashtbl.t =
    Hashtbl.create (Hashtbl.length t.table + 64)
  in
  let add_candidate net route info =
    let cur = Option.value (Hashtbl.find_opt candidates net) ~default:[] in
    Hashtbl.replace candidates net ((route, info) :: cur)
  in
  Hashtbl.iter
    (fun net () ->
       add_candidate net
         { Bgp_types.net; attrs = local_attrs t; peer_id = 0;
           igp_metric = Some 0 }
         (local_info t))
    t.local_nets;
  Hashtbl.iter
    (fun _ peer ->
       if Peer_fsm.state peer.s_fsm = Peer_fsm.Established then
         Hashtbl.iter
           (fun net attrs ->
              add_candidate net
                { Bgp_types.net; attrs; peer_id = peer.s_info.peer_id;
                  igp_metric = Some 0 }
                peer.s_info)
           peer.s_adj_in)
    t.peers;
  (* Best per net, reusing the standard decision ladder. *)
  let best : (Ipv4net.t, Bgp_types.attrs * int) Hashtbl.t =
    Hashtbl.create (Hashtbl.length candidates)
  in
  Hashtbl.iter
    (fun net cands ->
       match cands with
       | [] -> ()
       | first :: rest ->
         let (w, _) =
           List.fold_left
             (fun (br, bi) (r, i) ->
                if Bgp_decision.better r i br bi then (r, i) else (br, bi))
             first rest
         in
         Hashtbl.replace best net (w.Bgp_types.attrs, w.Bgp_types.peer_id))
    candidates;
  (* Replace the main table. *)
  Hashtbl.reset t.table;
  Hashtbl.iter (fun net v -> Hashtbl.replace t.table net v) best;
  (* Push per-peer deltas against each Adj-RIB-Out. *)
  Hashtbl.iter
    (fun _ peer ->
       if Peer_fsm.state peer.s_fsm = Peer_fsm.Established then begin
         let transform (attrs : Bgp_types.attrs) =
           match peer.s_info.kind with
           | Bgp_types.Ebgp ->
             if Aspath.contains attrs.aspath peer.s_peer_as then None
             else
               Some
                 { attrs with
                   Bgp_types.aspath = Aspath.prepend t.local_as attrs.aspath;
                   nexthop = peer.s_cfg_local; localpref = None; med = None }
           | Bgp_types.Ibgp -> Some attrs
         in
         let announce = ref [] in (* (attrs, net) *)
         let withdraw = ref [] in
         Hashtbl.iter
           (fun net (attrs, from_id) ->
              if from_id <> peer.s_info.peer_id then
                match transform attrs with
                | Some out ->
                  (match Hashtbl.find_opt peer.s_adj_out net with
                   | Some prev when Bgp_types.attrs_equal prev out -> ()
                   | _ ->
                     Hashtbl.replace peer.s_adj_out net out;
                     announce := (out, net) :: !announce)
                | None -> ())
           t.table;
         Hashtbl.iter
           (fun net _ ->
              if not (Hashtbl.mem t.table net) then withdraw := net :: !withdraw)
           peer.s_adj_out;
         List.iter (fun net -> Hashtbl.remove peer.s_adj_out net) !withdraw;
         peer.s_synced <- true;
         List.iter
           (fun msg -> ignore (Peer_fsm.send_update peer.s_fsm msg))
           (Bgp_packet.updates ~withdrawn:!withdraw ~announce:!announce)
       end)
    t.peers;
  t.dirty <- false

let start t =
  if not t.started then begin
    t.started <- true;
    (* One listener per distinct local address. *)
    let seen = Hashtbl.create 4 in
    Hashtbl.iter
      (fun _ peer ->
         let key = Ipv4.to_int peer.s_cfg_local in
         if not (Hashtbl.mem seen key) then begin
           Hashtbl.replace seen key ();
           let l =
             Netsim.Stream.listen t.netsim ~addr:peer.s_cfg_local
               ~port:t.bgp_port (fun ep ->
                   match find_peer t (Netsim.Stream.remote_addr ep) with
                   | Some p -> Peer_fsm.attach_stream p.s_fsm ep
                   | None -> Netsim.Stream.close ep)
           in
           t.listener <- l :: t.listener
         end)
      t.peers;
    Hashtbl.iter
      (fun _ peer ->
         if peer.s_passive then Peer_fsm.start_passive peer.s_fsm
         else dial t peer)
      t.peers;
    (* The scanner: fires every scan_interval regardless of load,
       starting at scan_offset. *)
    ignore
      (Eventloop.after t.loop t.scan_offset (fun () ->
           scan t;
           ignore
             (Eventloop.periodic t.loop t.scan_interval (fun () ->
                  if t.started then begin
                    scan t;
                    true
                  end
                  else false))))
  end

let route_count t = Hashtbl.length t.table
let scans_performed t = t.scans

let established_count t =
  Hashtbl.fold
    (fun _ p acc ->
       if Peer_fsm.state p.s_fsm = Peer_fsm.Established then acc + 1 else acc)
    t.peers 0

let shutdown t =
  t.started <- false;
  Hashtbl.iter
    (fun _ peer ->
       (match peer.s_retry with Some tm -> Eventloop.cancel tm | None -> ());
       Peer_fsm.stop peer.s_fsm)
    t.peers;
  List.iter Netsim.Stream.unlisten t.listener;
  t.listener <- [];
  Log.debug (fun m -> m "scanner router shut down")
