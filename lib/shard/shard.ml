(* Sharded BGP->RIB pipeline (docs/CONCURRENCY.md).

   Ownership: each worker domain exclusively owns one Engine (all
   route state for its prefix range). The main domain owns the
   mailboxes' identities, the pool record, and everything downstream
   of the mirrors. The only values crossing domains are the immutable
   op/delta messages inside the mailboxes; neither side retains or
   mutates a message after pushing it. *)

let internal_protocols = [ "connected"; "static"; "ospf"; "rip" ]
let is_internal protocol = List.mem protocol internal_protocols

(* --- per-range engine ------------------------------------------------ *)

module Engine = struct
  (* A fused replica of the per-range pipeline tail: BGP decision over
     per-peer candidates, per-protocol arbitration by administrative
     distance, and the extint gate (an external route is usable only
     while its nexthop resolves through the internal winners).
     Internal routes are absorbed for the whole address space — any
     owned external route may resolve via them — everything else only
     for the owned range. *)
  type t = {
    shard : int;
    nshards : int;
    (* peers currently attached to the decision stage; candidates from
       detached peers are skipped, as in Bgp_decision.decision_table *)
    infos : (int, Bgp_types.peer_info) Hashtbl.t;
    (* per-prefix BGP candidates, one per peer branch *)
    cands : (Ipv4net.t, (int, Bgp_types.route) Hashtbl.t) Hashtbl.t;
    bgp_winners : (Ipv4net.t, Bgp_types.route) Hashtbl.t;
    (* per-prefix internal-protocol candidates and their arbitrated
       winner; full address space *)
    int_cands : (Ipv4net.t, (string, Rib_route.t) Hashtbl.t) Hashtbl.t;
    int_best : Rib_route.t Ptree.t;
    (* per-prefix external-protocol candidates (ebgp/ibgp origin
       operations, dispatched by the RIB when the decision winners
       arrive back over its XRL boundary) and the current min-AD pick;
       owned range only *)
    ext_cands : (Ipv4net.t, (string, Rib_route.t) Hashtbl.t) Hashtbl.t;
    ext_pick : (Ipv4net.t, Rib_route.t) Hashtbl.t;
    (* nexthop -> owned nets whose ext pick uses it: which gates to
       recheck when internal routes covering that nexthop change *)
    by_nexthop : (int, (Ipv4net.t, unit) Hashtbl.t) Hashtbl.t;
    rib_winners : (Ipv4net.t, Rib_route.t) Hashtbl.t;
  }

  type emit = {
    emit_bgp : Ipv4net.t -> Bgp_types.route option -> unit;
    emit_rib : Ipv4net.t -> Rib_route.t option -> unit;
  }

  let create ~shard ~shards =
    if shards < 1 || shard < 0 || shard >= shards then
      invalid_arg "Shard.Engine.create";
    { shard; nshards = shards;
      infos = Hashtbl.create 16;
      cands = Hashtbl.create 4096;
      bgp_winners = Hashtbl.create 4096;
      int_cands = Hashtbl.create 64;
      int_best = Ptree.create ();
      ext_cands = Hashtbl.create 4096;
      ext_pick = Hashtbl.create 4096;
      by_nexthop = Hashtbl.create 64;
      rib_winners = Hashtbl.create 4096 }

  let owns t net = Ptree.shard_of ~shards:t.nshards net = t.shard

  let opt_rr_equal a b =
    match a, b with
    | None, None -> true
    | Some a, Some b -> Rib_route.equal a b
    | _ -> false

  (* The decision process over this prefix's candidates: the same
     tie-break ladder the single-domain decision_table pulls through
     its parents, skipping unresolved routes and detached peers. The
     ladder is a strict total order over distinct peers, so Hashtbl
     fold order cannot affect the result. *)
  let best_bgp t net =
    match Hashtbl.find_opt t.cands net with
    | None -> None
    | Some tbl ->
      Hashtbl.fold
        (fun _ (r : Bgp_types.route) acc ->
           if r.igp_metric = None then acc
           else
             match Hashtbl.find_opt t.infos r.peer_id with
             | None -> acc
             | Some info ->
               (match acc with
                | None -> Some (r, info)
                | Some (b, ib) ->
                  if Bgp_decision.better r info b ib then Some (r, info)
                  else acc))
        tbl None
      |> Option.map fst

  (* Arbitration among same-side protocol candidates: lowest admin
     distance wins, protocol name as a deterministic tie-break (default
     distances never tie). *)
  let min_ad (tbl : (string, Rib_route.t) Hashtbl.t) =
    Hashtbl.fold
      (fun _ (r : Rib_route.t) acc ->
         match acc with
         | None -> Some r
         | Some (b : Rib_route.t) ->
           if
             r.admin_distance < b.admin_distance
             || (r.admin_distance = b.admin_distance
                 && compare r.protocol b.protocol < 0)
           then Some r
           else acc)
      tbl None

  let resolves t nexthop = Ptree.longest_match t.int_best nexthop <> None

  (* Final per-prefix arbitration, mirroring the merge/extint chain:
     internal winner vs externally-gated pick, internal wins ties. *)
  let arbitrate t emit net =
    if owns t net then begin
      let int_w = Ptree.find t.int_best net in
      let ext_w =
        match Hashtbl.find_opt t.ext_pick net with
        | Some (e : Rib_route.t) when resolves t e.nexthop -> Some e
        | _ -> None
      in
      let w =
        match int_w, ext_w with
        | None, x | x, None -> x
        | Some (i : Rib_route.t), Some (e : Rib_route.t) ->
          if i.admin_distance <= e.admin_distance then Some i else Some e
      in
      let old = Hashtbl.find_opt t.rib_winners net in
      if not (opt_rr_equal old w) then begin
        (match w with
         | Some n -> Hashtbl.replace t.rib_winners net n
         | None -> Hashtbl.remove t.rib_winners net);
        emit.emit_rib net w
      end
    end

  let nh_index_add t nexthop net =
    let key = Ipv4.to_int nexthop in
    let nets =
      match Hashtbl.find_opt t.by_nexthop key with
      | Some nets -> nets
      | None ->
        let nets = Hashtbl.create 4 in
        Hashtbl.replace t.by_nexthop key nets;
        nets
    in
    Hashtbl.replace nets net ()

  let nh_index_remove t nexthop net =
    let key = Ipv4.to_int nexthop in
    match Hashtbl.find_opt t.by_nexthop key with
    | None -> ()
    | Some nets ->
      Hashtbl.remove nets net;
      if Hashtbl.length nets = 0 then Hashtbl.remove t.by_nexthop key

  (* Recompute the external pick for an owned prefix after its
     candidate set changed, keep the nexthop index in step, and
     re-arbitrate. *)
  let refresh_ext_pick t emit net =
    let pick =
      match Hashtbl.find_opt t.ext_cands net with
      | None -> None
      | Some tbl -> min_ad tbl
    in
    let old = Hashtbl.find_opt t.ext_pick net in
    if not (opt_rr_equal old pick) then begin
      (match old with
       | Some (o : Rib_route.t) -> nh_index_remove t o.nexthop net
       | None -> ());
      match pick with
      | Some (p : Rib_route.t) ->
        nh_index_add t p.nexthop net;
        Hashtbl.replace t.ext_pick net p
      | None -> Hashtbl.remove t.ext_pick net
    end;
    arbitrate t emit net

  let ext_set t protocol net r =
    let tbl =
      match Hashtbl.find_opt t.ext_cands net with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 2 in
        Hashtbl.replace t.ext_cands net tbl;
        tbl
    in
    Hashtbl.replace tbl protocol r

  let ext_remove t protocol net =
    match Hashtbl.find_opt t.ext_cands net with
    | None -> ()
    | Some tbl ->
      Hashtbl.remove tbl protocol;
      if Hashtbl.length tbl = 0 then Hashtbl.remove t.ext_cands net

  (* A candidate changed for an owned prefix: rerun the decision and,
     on a winner change, emit the delta. The winner does not enter the
     arbitration side here — it travels to the main domain, through
     the BGP fanout's RIB branch and the RIB's XRL boundary, and comes
     back as an ebgp/ibgp origin operation ([apply_rib]); keeping that
     round trip preserves the single-domain structure (per-protocol
     origin bookkeeping, redistribution, invariants) unchanged. *)
  let recompute_bgp t emit net =
    let w = best_bgp t net in
    let old = Hashtbl.find_opt t.bgp_winners net in
    let changed =
      match old, w with
      | None, None -> false
      | Some o, Some n -> not (Bgp_types.route_equal o n)
      | _ -> true
    in
    if changed then begin
      (match w with
       | Some n -> Hashtbl.replace t.bgp_winners net n
       | None -> Hashtbl.remove t.bgp_winners net);
      emit.emit_bgp net w
    end

  let apply_bgp t ~emit (op : Bgp_decision.shard_op) =
    match op with
    | Bgp_decision.Shard_peer info ->
      Hashtbl.replace t.infos info.peer_id info
    | Bgp_decision.Shard_peer_gone peer_id ->
      (* Candidates are not purged: the peer's deletion stage streams
         per-route deletes through the normal path, and candidates
         without an attached peer are already invisible to the
         decision — the same contract as decision_table#remove_parent. *)
      Hashtbl.remove t.infos peer_id
    | Bgp_decision.Shard_add (r : Bgp_types.route) ->
      if owns t r.net then begin
        let tbl =
          match Hashtbl.find_opt t.cands r.net with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 2 in
            Hashtbl.replace t.cands r.net tbl;
            tbl
        in
        Hashtbl.replace tbl r.peer_id r;
        recompute_bgp t emit r.net
      end
    | Bgp_decision.Shard_delete (r : Bgp_types.route) ->
      if owns t r.net then begin
        match Hashtbl.find_opt t.cands r.net with
        | None -> ()
        | Some tbl ->
          Hashtbl.remove tbl r.peer_id;
          if Hashtbl.length tbl = 0 then Hashtbl.remove t.cands r.net;
          recompute_bgp t emit r.net
      end

  (* An internal route changed at [net]: re-arbitrate [net] itself if
     owned, then recheck the gate of every owned external pick whose
     nexthop falls inside [net] — the extint recheck, scoped by the
     nexthop index. *)
  let recompute_int t emit net =
    let w =
      match Hashtbl.find_opt t.int_cands net with
      | None -> None
      | Some tbl -> min_ad tbl
    in
    let old = Ptree.find t.int_best net in
    if not (opt_rr_equal old w) then begin
      (match w with
       | Some r -> ignore (Ptree.insert t.int_best net r)
       | None -> ignore (Ptree.remove t.int_best net));
      arbitrate t emit net;
      let to_check = ref [] in
      Hashtbl.iter
        (fun nh nets ->
           if Ipv4net.contains_addr net (Ipv4.of_int nh) then
             Hashtbl.iter (fun n () -> to_check := n :: !to_check) nets)
        t.by_nexthop;
      List.iter (fun n -> arbitrate t emit n) !to_check
    end

  let apply_rib t ~emit (op : Rib.shard_op) =
    match op with
    | Rib.Shard_add (r : Rib_route.t) ->
      if is_internal r.protocol then begin
        let tbl =
          match Hashtbl.find_opt t.int_cands r.net with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 2 in
            Hashtbl.replace t.int_cands r.net tbl;
            tbl
        in
        Hashtbl.replace tbl r.protocol r;
        recompute_int t emit r.net
      end
      else if owns t r.net then begin
        ext_set t r.protocol r.net r;
        refresh_ext_pick t emit r.net
      end
    | Rib.Shard_delete { protocol; net } ->
      if is_internal protocol then begin
        match Hashtbl.find_opt t.int_cands net with
        | None -> ()
        | Some tbl ->
          Hashtbl.remove tbl protocol;
          if Hashtbl.length tbl = 0 then Hashtbl.remove t.int_cands net;
          recompute_int t emit net
      end
      else if owns t net then begin
        ext_remove t protocol net;
        refresh_ext_pick t emit net
      end

  let replay t ~emit =
    Hashtbl.iter (fun net r -> emit.emit_bgp net (Some r)) t.bgp_winners;
    Hashtbl.iter (fun net r -> emit.emit_rib net (Some r)) t.rib_winners

  (* A reborn BGP process starts from nothing: its peers re-attach and
     re-send their tables, so every decision-stage candidate held for
     the old process is invalid — including ones the old process would
     have deleted had it lived (a route withdrawn while it was down).
     Silent clear: the new mirror is empty, so there is nothing to
     emit deltas against; the RIB's ebgp/ibgp origins are flushed
     separately by its own protocol-death watch. Arbitration state is
     untouched. *)
  let reset_bgp t =
    Hashtbl.reset t.infos;
    Hashtbl.reset t.cands;
    Hashtbl.reset t.bgp_winners

  let bgp_winner t net = Hashtbl.find_opt t.bgp_winners net
  let rib_winner t net = Hashtbl.find_opt t.rib_winners net
  let bgp_winner_count t = Hashtbl.length t.bgp_winners
  let rib_winner_count t = Hashtbl.length t.rib_winners
end

(* --- worker pool ----------------------------------------------------- *)

type op =
  | Bgp_op of Bgp_decision.shard_op
  | Rib_op of Rib.shard_op
  | Barrier of int
  | Replay
  | Bgp_reset

type delta =
  | D_bgp of Ipv4net.t * Bgp_types.route option
  | D_rib of Ipv4net.t * Rib_route.t option
  | D_ack of int

type t = {
  nshards : int;
  loop : Eventloop.t;
  inboxes : op Mailbox.t array;
  outbox : delta Mailbox.t;
  mutable domains : unit Domain.t array;
  mutable on_bgp :
    (lane:Laneq.lane -> Ipv4net.t -> Bgp_types.route option -> unit) option;
  mutable on_rib :
    (lane:Laneq.lane -> Ipv4net.t -> Rib_route.t option -> unit) option;
  acks : (int, int) Hashtbl.t; (* barrier token -> acks received *)
  mutable next_token : int;
  failure : exn option Atomic.t;
  mutable closed : bool;
}

let shards t = t.nshards

(* Bounded per-turn delta application, so a full-table load's winner
   stream cannot monopolise a loop turn on the main domain. *)
let pump_slice = 2048

let rec pump pool () =
  let batch = Mailbox.drain ~bulk_slice:pump_slice pool.outbox in
  List.iter
    (fun (lane, d) ->
       match d with
       | D_ack token ->
         let n = Option.value (Hashtbl.find_opt pool.acks token) ~default:0 in
         Hashtbl.replace pool.acks token (n + 1)
       | D_bgp (net, w) ->
         (match pool.on_bgp with Some f -> f ~lane net w | None -> ())
       | D_rib (net, w) ->
         (match pool.on_rib with Some f -> f ~lane net w | None -> ()))
    batch;
  if not (Mailbox.is_empty pool.outbox) then
    Eventloop.defer pool.loop (pump pool)

let worker pool shard () =
  let eng = Engine.create ~shard ~shards:pool.nshards in
  let inbox = pool.inboxes.(shard) in
  let emit_for lane =
    { Engine.emit_bgp =
        (fun net w -> Mailbox.push pool.outbox lane ~net (D_bgp (net, w)));
      emit_rib =
        (fun net w -> Mailbox.push pool.outbox lane ~net (D_rib (net, w))) }
  in
  let urgent_emit = emit_for Laneq.Urgent in
  let bulk_emit = emit_for Laneq.Bulk in
  let rec loop () =
    match Mailbox.drain_wait inbox with
    | [] -> () (* closed and drained *)
    | batch ->
      List.iter
        (fun (lane, op) ->
           let emit =
             match lane with
             | Laneq.Urgent -> urgent_emit
             | Laneq.Bulk -> bulk_emit
           in
           match op with
           | Barrier token ->
             Mailbox.push pool.outbox Laneq.Bulk ~net:Ipv4net.default
               (D_ack token)
           | Replay -> Engine.replay eng ~emit:bulk_emit
           | Bgp_reset -> Engine.reset_bgp eng
           | Bgp_op o -> Engine.apply_bgp eng ~emit o
           | Rib_op o -> Engine.apply_rib eng ~emit o)
        batch;
      loop ()
  in
  try loop () with exn -> Atomic.set pool.failure (Some exn)

let create ?(shards = 4) loop () =
  if shards < 1 then invalid_arg "Shard.create";
  let pool_ref = ref None in
  let outbox =
    Mailbox.create ~ordered:true
      ~on_wakeup:(fun () ->
          match !pool_ref with
          | Some pool -> Eventloop.post loop (pump pool)
          | None -> ())
      ()
  in
  let pool =
    { nshards = shards; loop;
      inboxes =
        Array.init shards (fun _ -> Mailbox.create ~ordered:true ());
      outbox;
      domains = [||];
      on_bgp = None; on_rib = None;
      acks = Hashtbl.create 4;
      next_token = 0;
      failure = Atomic.make None;
      closed = false }
  in
  (* Published before the workers spawn; Domain.spawn orders the write. *)
  pool_ref := Some pool;
  pool.domains <- Array.init shards (fun s -> Domain.spawn (worker pool s));
  pool

let check_failure pool =
  match Atomic.get pool.failure with
  | Some exn ->
    failwith ("Shard: worker died: " ^ Printexc.to_string exn)
  | None -> ()

let owner pool net = Ptree.shard_of ~shards:pool.nshards net

(* Broadcasts are fences: a later op for any prefix must not overtake
   them, or a lagging worker would apply, say, a new peer's routes
   before the reset that precedes them and then wipe them. *)
let broadcast pool lane op =
  Array.iter (fun ib -> Mailbox.push_fence ib lane op) pool.inboxes

let bgp_dispatch pool ~lane (op : Bgp_decision.shard_op) =
  if not pool.closed then
    match op with
    | Bgp_decision.Shard_add r | Bgp_decision.Shard_delete r ->
      let net = r.Bgp_types.net in
      Mailbox.push pool.inboxes.(owner pool net) lane ~net (Bgp_op op)
    | Bgp_decision.Shard_peer _ | Bgp_decision.Shard_peer_gone _ ->
      broadcast pool lane (Bgp_op op)

let rib_dispatch pool ~lane (op : Rib.shard_op) =
  if not pool.closed then
    match op with
    | Rib.Shard_add r ->
      if is_internal r.Rib_route.protocol then broadcast pool lane (Rib_op op)
      else
        Mailbox.push
          pool.inboxes.(owner pool r.Rib_route.net)
          lane ~net:r.Rib_route.net (Rib_op op)
    | Rib.Shard_delete { protocol; net } ->
      if is_internal protocol then broadcast pool lane (Rib_op op)
      else Mailbox.push pool.inboxes.(owner pool net) lane ~net (Rib_op op)

let replay pool = if not pool.closed then broadcast pool Laneq.Bulk Replay

let connect_bgp pool bgp =
  pool.on_bgp <-
    Some (fun ~lane net w -> Bgp_process.apply_winner_delta bgp ~lane net w);
  (* [bgp] may be a reborn process with an empty mirror: discard all
     decision-stage state before any of its routes arrive. The reset
     rides the bulk lane so that straggler operations from the previous
     process (always at least as old in every inbox) are cleared with
     it, not applied after it. *)
  if not pool.closed then broadcast pool Laneq.Bulk Bgp_reset

let connect_rib pool rib =
  pool.on_rib <-
    Some (fun ~lane net w -> Rib.apply_winner_delta rib ~lane net w)

let backlog pool =
  Array.fold_left (fun acc ib -> acc + Mailbox.length ib) 0 pool.inboxes
  + Mailbox.length pool.outbox

let quiesce ?(timeout_s = 30.) pool =
  if not pool.closed then begin
    check_failure pool;
    let token = pool.next_token in
    pool.next_token <- token + 1;
    Hashtbl.replace pool.acks token 0;
    Array.iter
      (fun ib ->
         Mailbox.push ib Laneq.Bulk ~net:Ipv4net.default (Barrier token))
      pool.inboxes;
    let deadline = Unix.gettimeofday () +. timeout_s in
    let finished () =
      Hashtbl.find_opt pool.acks token = Some pool.nshards
    in
    (* Drive the loop so posted pump callbacks run; run_until_idle
       dispatches only due work, so the simulation clock stays put. *)
    while
      (not (finished ()))
      && Unix.gettimeofday () < deadline
      && Atomic.get pool.failure = None
    do
      Eventloop.run_until_idle pool.loop;
      if not (finished ()) then Unix.sleepf 0.0002
    done;
    let ok = finished () in
    Hashtbl.remove pool.acks token;
    check_failure pool;
    if not ok then failwith "Shard.quiesce: timeout"
  end

let shutdown pool =
  if not pool.closed then begin
    pool.closed <- true;
    Array.iter Mailbox.close pool.inboxes;
    Array.iter Domain.join pool.domains;
    Mailbox.close pool.outbox;
    (* Workers are gone; anything still in the outbox is applied here. *)
    pump pool ()
  end
