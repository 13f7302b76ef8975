(* --- the sender's outbox --------------------------------------------- *)

(* Each entry carries the trace context that was ambient when it was
   queued: the flush runs on a later turn, which would lose it. *)
type 'r entry = Laneq.change * 'r * Telemetry.Trace.ctx option

type 'r outbox = {
  router : Xrl_router.t;
  peer : string;
  q : 'r entry Laneq.t;
  merge : 'r entry -> 'r entry -> 'r entry Laneq.merge;
  same : 'r entry -> 'r entry -> bool;
  bulk_slice : int;
  net : 'r -> Ipv4net.t;
  span : string;
  clock : unit -> float;
  pt_queued : Telemetry.Profile.point;
  pt_sent : Telemetry.Profile.point;
  g_depth : Telemetry.gauge;
  g_urgent : Telemetry.gauge;
  g_bulk : Telemetry.gauge;
  send : Laneq.lane -> Telemetry.Profile.verb -> 'r list -> unit;
  mutable armed : bool;
}

(* A replacement travels, and records, as an add. *)
let verb : Laneq.change -> Telemetry.Profile.verb = function
  | Add | Replace -> Add
  | Delete -> Delete

let loop_clock router =
  let loop = Xrl_router.eventloop router in
  fun () -> Eventloop.now loop

let outbox ?ordered ?(same = fun _ _ -> true) router ~peer ~name ~bulk_slice
    ~net ~queued ~sent ~span send =
  { router; peer; q = Laneq.create ?ordered ();
    merge = Laneq.merge_changes ~compatible:same;
    same = (fun (c0, r0, _) (c1, r1, _) -> verb c0 = verb c1 && same r0 r1);
    bulk_slice; net; span; clock = loop_clock router;
    pt_queued = Telemetry.Profile.point queued;
    pt_sent = Telemetry.Profile.point sent;
    g_depth = Telemetry.gauge (name ^ ".depth");
    g_urgent = Telemetry.gauge (name ^ ".urgent");
    g_bulk = Telemetry.gauge (name ^ ".bulk");
    send; armed = false }

let length ob = Laneq.length ob.q

let set_gauges ob =
  Telemetry.set_gauge ob.g_depth (float_of_int (Laneq.length ob.q));
  Telemetry.set_gauge ob.g_urgent (float_of_int (Laneq.urgent_length ob.q));
  Telemetry.set_gauge ob.g_bulk (float_of_int (Laneq.bulk_length ob.q))

let clear ob =
  Laneq.clear ob.q;
  set_gauges ob

let live ob = Xrl_router.peer_live ob.router ob.peer

(* One run leaves as one call of [send]. Profile points stay per
   route; the run's first trace context parents the send span. *)
let send_run ob lane = function
  | [] -> ()
  | ((change, _, first_ctx) :: _ : 'r entry list) as entries ->
    List.iter
      (fun (c, r, _) ->
         Telemetry.Profile.record ob.pt_sent ~clock:ob.clock (verb c) (ob.net r))
      entries;
    let routes = List.map (fun (_, r, _) -> r) entries in
    Telemetry.Trace.with_ctx first_ctx @@ fun () ->
    Telemetry.Trace.span_sync ~name:ob.span
      ~note:(Telemetry.Trace.run_note ob.net routes) ~clock:ob.clock
    @@ fun () -> ob.send lane (verb change) routes

(* Maximal runs of neighbours that [same] groups, each sent as soon as
   the next entry ends it, so every entry leaves in drain order. *)
let send_runs ob lane entries =
  let send run = send_run ob lane (List.rev run) in
  send
    (List.fold_left
       (fun run e ->
          match run with
          | prev :: _ when ob.same prev e -> e :: run
          | _ ->
            send run;
            [ e ])
       [] entries)

(* One slice per turn: the urgent lane dry, then one bulk slice, so a
   flap is never stuck behind a table load already queued here.
   Leftover bulk re-defers, letting timers, fresh I/O and new urgent
   work in between. *)
let rec flush ob =
  ob.armed <- false;
  if not (live ob) then clear ob
  else begin
    let urgent, bulk = Laneq.drain ob.q ~bulk_slice:ob.bulk_slice in
    send_runs ob Laneq.Urgent urgent;
    send_runs ob Laneq.Bulk bulk;
    set_gauges ob;
    if not (Laneq.is_empty ob.q) then arm ob
  end

and arm ob =
  if not ob.armed then begin
    ob.armed <- true;
    Eventloop.defer (Xrl_router.eventloop ob.router) (fun () -> flush ob)
  end

let push ob lane change r =
  if live ob then begin
    let net = ob.net r in
    Telemetry.Profile.record ob.pt_queued ~clock:ob.clock (verb change) net;
    Laneq.push ~merge:ob.merge ob.q lane ~net
      (change, r, Telemetry.Trace.current ());
    set_gauges ob;
    arm ob
  end

let replay ob f =
  Laneq.clear ob.q;
  let n = ref 0 in
  f (fun r ->
      Laneq.push ob.q Laneq.Bulk ~net:(ob.net r) (Laneq.Add, r, None);
      incr n);
  set_gauges ob;
  if not (Laneq.is_empty ob.q) then arm ob;
  !n

(* --- the receiver's handler ------------------------------------------ *)

type 'a run = {
  method_name : string;
  unpack : string -> ('a list, string) result;
  run_net : 'a -> Ipv4net.t;
  run_verb : Telemetry.Profile.verb;
}

let adds =
  { method_name = "add_routes4"; unpack = Route_pack.unpack_adds;
    run_net = (fun (a : Route_pack.add) -> a.net); run_verb = Add }

let deletes =
  { method_name = "delete_routes4"; unpack = Route_pack.unpack_deletes;
    run_net = Fun.id; run_verb = Delete }

let serve
    ?(refused : (int -> int -> string, unit, string) format =
      "%d/%d routes refused") router ~interface run ~span ~arrived apply =
  let clock = loop_clock router in
  let pt_arrived = Telemetry.Profile.point arrived in
  Xrl_router.add_handler router ~interface ~method_name:run.method_name
    (fun args reply ->
       let apply = apply args in
       match run.unpack (Xrl_atom.get_binary args "routes") with
       | Error msg -> reply (Xrl_error.Bad_args ("routes: " ^ msg)) []
       | Ok items ->
         let n = List.length items in
         let failed = ref 0 in
         Telemetry.Trace.span_sync ~name:span
           ~note:(Telemetry.Trace.run_note run.run_net items) ~clock
           (fun () ->
              List.iter
                (fun a ->
                   Telemetry.Profile.record pt_arrived ~clock run.run_verb
                     (run.run_net a);
                   if not (apply a) then incr failed)
                items);
         if !failed = 0 then reply Xrl_error.Ok_xrl [ Xrl_atom.u32 "count" n ]
         else
           reply
             (Xrl_error.Command_failed (Printf.sprintf refused !failed n))
             [])
