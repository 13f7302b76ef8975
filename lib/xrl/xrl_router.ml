let src = Logs.Src.create "xorp.xrl_router" ~doc:"XRL router"

module Log = (val Logs.src_log src : Logs.LOG)

type handler =
  Xrl_atom.t list -> (Xrl_error.t -> Xrl_atom.t list -> unit) -> unit

type method_entry = { mid : string; key : string; handler : handler }

(* Reliability counters (process-wide; resolved once at module load). *)
let c_retries = Telemetry.counter "xrl.retries"
let c_timeouts = Telemetry.counter "xrl.timeouts"
let c_late = Telemetry.counter "xrl.late_replies_dropped"
let count c = if Telemetry.is_enabled () then Telemetry.incr c

type retry = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
  attempt_timeout : float option;
}

let default_retry =
  { max_attempts = 4; base_delay = 0.05; max_delay = 2.0; jitter = 0.25;
    attempt_timeout = Some 2.0 }

(* Errors worth retrying: transport failures and resolution failures
   are transient across a component restart, and an attempt-level
   timeout means the request or its reply was lost in flight.
   No_such_method is transient for the same reason: a freshly
   registered instance exists at the Finder before it has advertised
   its methods, so a caller reacting to the birth notification can
   resolve into that window. Anything else (Command_failed, Bad_args,
   ...) is the peer's final word. *)
let retryable = function
  | Xrl_error.Send_failed _ | Xrl_error.Resolve_failed _
  | Xrl_error.No_such_method _ | Xrl_error.Timed_out _ -> true
  | _ -> false

(* The per-call caches are keyed by the records a call already holds,
   so a lookup builds no string. Senders: one per (family, address)
   destination of a resolution. *)
module Dest = Hashtbl.Make (struct
    type t = Finder.resolved

    let equal (a : t) (b : t) =
      String.equal a.address b.address && String.equal a.family b.family

    let hash (a : t) = Hashtbl.hash a.address
  end)

(* Resolutions: one per (target, interface, version, method); the
   stored key has its arguments dropped. *)
module Rkey = Hashtbl.Make (struct
    type t = Xrl.t

    let equal (a : t) (b : t) =
      String.equal a.method_name b.method_name
      && String.equal a.target b.target
      && String.equal a.interface b.interface
      && String.equal a.version b.version

    let hash (a : t) =
      (Hashtbl.hash a.target * 65599) + Hashtbl.hash a.method_name
  end)

(* One per (family, address) destination. Telemetry handles are
   resolved once here instead of per reply. *)
type sender_entry = {
  sender : Pf.sender;
  s_family : string;
  s_address : string;
  mutable dest_class : string; (* "" when only resolved XRLs used it *)
  calls : Telemetry.counter;
  rtt : Telemetry.Histogram.t;
}

type t = {
  loop : Eventloop.t;
  fndr : Finder.t;
  cls : string;
  families : Pf.family list;
  family_pref : string list;
  rng : Rng.t; (* backoff jitter; fixed seed keeps tests deterministic *)
  target : Finder.target;
  methods : (int, method_entry) Hashtbl.t; (* by [key_index] of the key *)
  listeners : Pf.listener list;
  senders : sender_entry Dest.t;
  rcache : Finder.resolved Rkey.t;
  inflight : (int, Xrl_error.t -> unit) Hashtbl.t; (* call id -> fail *)
  watched : (string, unit) Hashtbl.t; (* classes with a death watch *)
  mutable unwatch : (unit -> unit) list; (* removers of our Finder watches *)
  mutable next_call : int;
  mutable pending : int;
  mutable live : bool;
  mutable unhook : unit -> unit; (* removes our Finder invalidate hook *)
}

let default_pref = [ "x-intra"; "stcp"; "sudp" ]

let split_keyed_method name =
  match String.rindex_opt name '@' with
  | None -> (name, None)
  | Some i ->
    ( String.sub name 0 i,
      Some (String.sub name (i + 1) (String.length name - i - 1)) )

(* The trace context rides in a reserved argument, which [send] below
   puts first, as [List [U64 trace; U64 span]]. Peel it off before the
   handler — and before any IDL arg checking — sees the call, and make
   it the ambient context for the handler's duration so spans opened
   inside join the caller's trace. Only that one shape with positive
   ids is a context; anything else under the reserved name (another
   type or arity, a non-positive or out-of-range id, a second trace
   atom) is stripped and ignored. Returns the trace and span ids, 0
   for none. Neither the common untraced call nor a well-formed traced
   one copies the argument list. *)
let is_trace_atom (a : Xrl_atom.t) =
  a.Xrl_atom.name = Telemetry.Trace.trace_atom_name

let trace_id_of = function
  | Xrl_atom.U64 v
    when Int64.compare v 0L > 0 && Int64.compare v (Int64.of_int max_int) <= 0
    ->
    Int64.to_int v
  | _ -> 0

let trace_ids = function
  | Xrl_atom.List [ tr; sp ] ->
    let trace = trace_id_of tr and span = trace_id_of sp in
    if trace > 0 && span > 0 then (trace, span) else (0, 0)
  | _ -> (0, 0)

let split_trace_arg args =
  match args with
  | a :: rest when is_trace_atom a && not (List.exists is_trace_atom rest) ->
    let trace, span = trace_ids a.Xrl_atom.value in
    (trace, span, rest)
  | _ when not (List.exists is_trace_atom args) -> (0, 0, args)
  | _ -> (
      match List.partition is_trace_atom args with
      | [ a ], rest ->
        let trace, span = trace_ids a.Xrl_atom.value in
        (trace, span, rest)
      | _, rest -> (0, 0, rest))

let trace_atom (c : Telemetry.Trace.ctx) : Xrl_atom.t =
  { name = Telemetry.Trace.trace_atom_name;
    value =
      List [ U64 (Int64.of_int c.trace_id); U64 (Int64.of_int c.span_id) ] }

let method_id_of ~interface ~version ~name =
  interface ^ "/" ^ version ^ "/" ^ name

let run_handler entry (xrl : Xrl.t) reply =
  let trace, span, args = split_trace_arg xrl.args in
  match
    Telemetry.Trace.with_ids ~trace ~span (fun () -> entry.handler args reply)
  with
  | () -> ()
  | exception Xrl_atom.Bad_args msg -> reply (Xrl_error.Bad_args msg) []
  | exception exn ->
    Log.err (fun m ->
        m "handler %s raised %s" entry.mid (Printexc.to_string exn));
    reply (Xrl_error.Internal_error (Printexc.to_string exn)) []

(* Handlers are found by the dispatch key a resolved call carries
   ([name@key]) without building a string. A key is 32 random hex
   digits; its first 15 read as an int (60 random bits) index the
   handlers, read in place from the received name. The helpers are
   top-level functions so that a call allocates no closure. *)
let rec hex_int s i stop acc =
  if i = stop then acc
  else
    let d =
      match s.[i] with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | _ -> -1
    in
    if d < 0 then -1 else hex_int s (i + 1) stop ((acc lsl 4) lor d)

(* The index of the key at [ofs] in [s], or -1. *)
let key_index s ofs =
  if String.length s - ofs < 15 then -1 else hex_int s ofs (ofs + 15) 0

(* Do [n] chars of [a] from [ai] equal those of [b] from [bi]? *)
let rec same_chars a ai b bi n =
  n = 0 || (a.[ai] = b.[bi] && same_chars a (ai + 1) b (bi + 1) (n - 1))

(* Is [entry] the handler [xrl] names: its key after the '@' at [at],
   and its method id [interface/version/name] with the name before
   it? *)
let names entry (xrl : Xrl.t) at =
  let m = xrl.method_name and mid = entry.mid in
  let il = String.length xrl.interface and vl = String.length xrl.version in
  let kl = String.length entry.key in
  String.length m - at - 1 = kl
  && same_chars m (at + 1) entry.key 0 kl
  && String.length mid = il + vl + 2 + at
  && same_chars mid 0 xrl.interface 0 il
  && mid.[il] = '/'
  && same_chars mid (il + 1) xrl.version 0 vl
  && mid.[il + vl + 1] = '/'
  && same_chars mid (il + vl + 2) m 0 at

(* Anything the keyed lookup does not match takes the general path,
   which builds the method id and words every error. *)
let dispatch_slow t (xrl : Xrl.t) reply =
  let base, key = split_keyed_method xrl.method_name in
  let mid =
    method_id_of ~interface:xrl.interface ~version:xrl.version ~name:base
  in
  match
    Hashtbl.fold
      (fun _ e found -> if String.equal e.mid mid then Some e else found)
      t.methods None
  with
  | None -> reply (Xrl_error.No_such_method mid) []
  | Some entry ->
    if key <> Some entry.key then
      reply
        (Xrl_error.No_such_method
           (mid ^ " (bad or missing dispatch key; resolve via the Finder)"))
        []
    else run_handler entry xrl reply

let dispatch_of t : Pf.dispatch =
  fun xrl reply ->
  let m = xrl.Xrl.method_name in
  match String.rindex m '@' with
  | exception Not_found -> dispatch_slow t xrl reply
  | at ->
    (match Hashtbl.find t.methods (key_index m (at + 1)) with
     | entry when names entry xrl at -> run_handler entry xrl reply
     | _ | (exception Not_found) -> dispatch_slow t xrl reply)

(* Does call target [target] name class [cls]? It is either the class
   name or an instance name [cls ^ "-" ^ digits]. *)
let target_names_class target cls =
  let tlen = String.length target in
  let clen = String.length cls in
  if tlen = clen then String.equal target cls
  else if tlen > clen + 1 && target.[clen] = '-' then begin
    let rec digits i =
      i >= tlen || (target.[i] >= '0' && target.[i] <= '9' && digits (i + 1))
    in
    String.sub target 0 clen = cls && digits (clen + 1)
  end
  else false

(* A target name is a component class or an instance name
   [cls ^ "-" ^ digits]; reduce either to the class. *)
let class_of_name name =
  let len = String.length name in
  match String.rindex_opt name '-' with
  | Some i when i > 0 && i < len - 1 ->
    let rec digits j =
      j >= len || (name.[j] >= '0' && name.[j] <= '9' && digits (j + 1))
    in
    if digits (i + 1) then String.sub name 0 i else name
  | _ -> name

let invalidate_class t cls =
  (* A registration change to our own class can change the key of any
     method we might call through ourselves; also, ACL changes arrive
     attributed to the restricted caller class. Cheapest safe answer
     for both: drop everything. For any other class, only its own
     cached resolutions can be stale. *)
  if cls = t.cls then Rkey.reset t.rcache
  else begin
    let stale =
      Rkey.fold
        (fun (x : Xrl.t) _ acc ->
           if target_names_class x.target cls then x :: acc else acc)
        t.rcache []
    in
    List.iter (Rkey.remove t.rcache) stale
  end

let create ?(families = [ Pf_intra.family ]) ?(family_pref = default_pref)
    fndr loop ~class_name ?(sole = false) () =
  let rec t =
    lazy
      (let listeners =
         List.map
           (fun (fam : Pf.family) ->
              fam.make_listener loop (fun xrl reply ->
                  dispatch_of (Lazy.force t) xrl reply))
           families
       in
       let addresses =
         List.map2
           (fun (fam : Pf.family) (l : Pf.listener) ->
              (fam.family_name, l.address))
           families listeners
       in
       let target =
         match Finder.register_target fndr ~class_name ~sole ~addresses () with
         | Ok target -> target
         | Error msg ->
           List.iter (fun (l : Pf.listener) -> l.shutdown ()) listeners;
           failwith ("Xrl_router.create: " ^ msg)
       in
       { loop; fndr; cls = class_name; families; family_pref;
         rng = Rng.create 0xB0FF; target; methods = Hashtbl.create 32;
         listeners; senders = Dest.create 8;
         rcache = Rkey.create 64;
         inflight = Hashtbl.create 32; watched = Hashtbl.create 4;
         unwatch = []; next_call = 0; pending = 0; live = true;
         unhook = (fun () -> ()) })
  in
  let t = Lazy.force t in
  t.unhook <- Finder.on_invalidate fndr (fun cls -> invalidate_class t cls);
  t

let add_handler t ~interface ?(version = "1.0") ~method_name handler =
  let mid = method_id_of ~interface ~version ~name:method_name in
  let key = Finder.register_method t.fndr t.target ~method_id:mid in
  (* [add], not [replace]: two keys may share an index, and the general
     path still finds whichever the index shadows. *)
  Hashtbl.filter_map_inplace
    (fun _ e -> if String.equal e.mid mid then None else Some e)
    t.methods;
  Hashtbl.add t.methods (key_index key 0) { mid; key; handler }

(* Every Finder watch this router holds goes through here, so
   [shutdown] can remove them all; a shut router takes no new ones (a
   late request can still reach a handler over a simulated stream). *)
let watch t cls on_event =
  if t.live then
    t.unwatch <- Finder.watch_class t.fndr cls on_event :: t.unwatch

let peer_live t cls = Finder.is_live t.fndr cls

(* [up] is what the watcher was last told, starting from the Finder's
   state, so the callbacks alternate. [deaths] counts last-instance
   deaths; [due] is the count a pending rebirth was scheduled at, and
   the rebirth runs only if no death came in between. It waits a turn
   because the birth fires from inside the newborn's registration,
   before it has advertised its methods. *)
let watch_peer t ~cls ?(on_death = ignore) ?on_rebirth () =
  let up = ref (peer_live t cls) and deaths = ref 0 and due = ref (-1) in
  watch t cls (fun event _instance ->
      match (event, on_rebirth) with
      | Finder.Death, _ ->
        if not (peer_live t cls) then begin
          incr deaths;
          if !up then begin
            up := false;
            on_death ()
          end
        end
      | Finder.Birth, _ when !up || !due = !deaths -> ()
      | Finder.Birth, None -> up := true
      | Finder.Birth, Some on_rebirth ->
        let d = !deaths in
        due := d;
        Eventloop.defer t.loop (fun () ->
            if t.live && !deaths = d then begin
              up := true;
              on_rebirth ()
            end))

(* An instance of [cls] died: evict every sender whose transport
   address no longer belongs to a live instance of the class, failing
   its in-flight calls via the transport's close (ascending-seq order).
   Calls sent with a retry policy re-resolve from scratch and so find a
   restarted instance at its new address; calls without one fail
   promptly instead of waiting on a dead connection. *)
let handle_death t cls =
  let alive = Finder.live_addresses t.fndr cls in
  let stale =
    Dest.fold
      (fun dest (e : sender_entry) acc ->
         if
           e.dest_class = cls
           && not
                (List.exists
                   (fun (f, a) -> f = e.s_family && a = e.s_address)
                   alive)
         then (dest, e) :: acc
         else acc)
      t.senders []
  in
  List.iter
    (fun (dest, (e : sender_entry)) ->
       Log.info (fun m ->
           m "peer %s died; evicting sender %s" cls e.s_address);
       Dest.remove t.senders dest;
       e.sender.Pf.close_sender ())
    stale

let sender_for t ?watch_cls (resolved : Finder.resolved) =
  match Dest.find t.senders resolved with
  | entry ->
    (match watch_cls with
     | Some cls when entry.dest_class = "" -> entry.dest_class <- cls
     | _ -> ());
    entry
  | exception Not_found ->
    (match
       List.find_opt
         (fun (fam : Pf.family) -> fam.family_name = resolved.family)
         t.families
     with
     | None -> invalid_arg ("no such protocol family: " ^ resolved.family)
     | Some fam ->
       let sender = fam.make_sender t.loop resolved.address in
       let entry =
         { sender; s_family = resolved.family; s_address = resolved.address;
           dest_class = Option.value watch_cls ~default:"";
           calls = Telemetry.counter ("xrl." ^ resolved.family ^ ".calls");
           rtt = Telemetry.histogram ("xrl." ^ resolved.family ^ ".rtt_us") }
       in
       Dest.replace t.senders resolved entry;
       (* First sender towards this class: subscribe to its lifetime
          notifications (§6.5) so a death cleans us up. *)
       (match watch_cls with
        | Some cls when not (Hashtbl.mem t.watched cls) ->
          Hashtbl.replace t.watched cls ();
          watch t cls (fun ev _inst ->
              if ev = Finder.Death then handle_death t cls)
        | _ -> ());
       entry)

let resolve_for_send t (xrl : Xrl.t) =
  if Xrl.is_resolved xrl then
    Ok
      { Finder.family = xrl.protocol; address = xrl.target;
        keyed_method = xrl.method_name }
  else
    match Rkey.find t.rcache xrl with
    | r -> Ok r
    | exception Not_found ->
      (match
         Finder.resolve t.fndr ~family_pref:t.family_pref
           ~caller:(Finder.instance_name t.target) xrl
       with
       | Ok r ->
         Rkey.replace t.rcache { xrl with args = [] } r;
         Ok r
       | Error e -> Error e)

(* Backoff before attempt [n + 1]: exponential in the attempt number,
   capped, plus proportional jitter so a herd of failed calls does not
   retry in lock-step. *)
let backoff_delay t (r : retry) n =
  let d = r.base_delay *. (2. ** float_of_int (n - 1)) in
  let d = Float.min d r.max_delay in
  if r.jitter > 0. then d *. (1. +. (r.jitter *. Rng.float t.rng)) else d

let send ?deadline ?retry t (xrl : Xrl.t) cb =
  if not t.live then cb (Xrl_error.Send_failed "router shut down") []
  else begin
    (* Propagate the ambient trace context on the wire, and keep it
       ambient in the reply callback: replies arrive asynchronously,
       so callers chaining further sends from their callbacks would
       otherwise fall out of the trace. *)
    let ctx = Telemetry.Trace.current () in
    t.next_call <- t.next_call + 1;
    let id = t.next_call in
    t.pending <- t.pending + 1;
    (* The call settles exactly once, no matter how replies, timers,
       shutdown sweeps, and chaotic transports race: the first
       settlement wins, every later one is counted and dropped. *)
    let settled = ref false in
    let failed = ref 0 (* highest attempt already abandoned *) in
    let deadline_timer = ref None in
    let attempt_timer = ref None in
    let cancel_opt r =
      match !r with
      | Some tm ->
        Eventloop.cancel tm;
        r := None
      | None -> ()
    in
    let settle err args =
      if !settled then count c_late
      else begin
        settled := true;
        t.pending <- t.pending - 1;
        Hashtbl.remove t.inflight id;
        cancel_opt deadline_timer;
        cancel_opt attempt_timer;
        Telemetry.Trace.with_ctx ctx (fun () -> cb err args)
      end
    in
    Hashtbl.replace t.inflight id (fun err -> settle err []);
    (match deadline with
     | Some d ->
       deadline_timer :=
         Some
           (Eventloop.after t.loop d (fun () ->
                deadline_timer := None;
                if not !settled then begin
                  count c_timeouts;
                  settle
                    (Xrl_error.Timed_out
                       (Printf.sprintf "%s: no reply within %gs"
                          (Xrl.method_id xrl) d))
                    []
                end))
     | None -> ());
    let rec attempt n =
      if !settled then ()
      else if not t.live then settle (Xrl_error.Send_failed "router shut down") []
      else begin
        (match retry with
         | Some { attempt_timeout = Some at; _ } ->
           cancel_opt attempt_timer;
           attempt_timer :=
             Some
               (Eventloop.after t.loop at (fun () ->
                    attempt_timer := None;
                    if (not !settled) && !failed < n then begin
                      count c_timeouts;
                      fail_attempt n
                        (Xrl_error.Timed_out
                           (Printf.sprintf "%s: attempt %d: no reply within %gs"
                              (Xrl.method_id xrl) n at))
                    end))
         | _ -> ());
        match resolve_for_send t xrl with
        | Error e -> fail_attempt n e
        | Ok r ->
          let wire_args =
            if Telemetry.is_enabled () then
              match ctx with
              | Some c -> trace_atom c :: xrl.Xrl.args
              | None -> xrl.Xrl.args
            else xrl.Xrl.args
          in
          let wire_xrl =
            { xrl with Xrl.protocol = r.family; target = r.address;
                       method_name = r.keyed_method; args = wire_args }
          in
          let watch_cls =
            if Xrl.is_resolved xrl then None
            else Some (class_of_name xrl.Xrl.target)
          in
          (match sender_for t ?watch_cls r with
           | entry ->
             let t0 =
               if Telemetry.is_enabled () then Unix.gettimeofday () else nan
             in
             let on_reply err args =
               if !settled || !failed >= n then count c_late
               else begin
                 if not (Float.is_nan t0) then begin
                   Telemetry.incr entry.calls;
                   Telemetry.observe entry.rtt
                     ((Unix.gettimeofday () -. t0) *. 1e6)
                 end;
                 if Xrl_error.is_ok err || not (retryable err) then
                   settle err args
                 else fail_attempt n err
               end
             in
             entry.sender.Pf.send_req wire_xrl on_reply
           | exception Invalid_argument msg ->
             fail_attempt n (Xrl_error.Send_failed msg))
      end
    and fail_attempt n err =
      (* Abandon attempt [n]: either schedule the next attempt or
         settle with the error. Guarded so a late reply and an attempt
         timer racing on the same attempt cannot both schedule a
         retry. *)
      if !settled || !failed >= n then ()
      else begin
        failed := n;
        cancel_opt attempt_timer;
        match retry with
        | Some r when t.live && n < r.max_attempts && retryable err ->
          count c_retries;
          (* A transport failure can mean the cached resolution is
             stale (the peer restarted elsewhere); re-resolve. *)
          if not (Xrl.is_resolved xrl) then Rkey.remove t.rcache xrl;
          ignore
            (Eventloop.after t.loop (backoff_delay t r n) (fun () ->
                 attempt (n + 1)))
        | _ -> settle err []
      end
    in
    attempt 1
  end

let call_blocking ?(deadline = 30.0) ?retry t xrl =
  let result = ref None in
  send ~deadline ?retry t xrl (fun err args -> result := Some (err, args));
  Eventloop.run ~until:(fun () -> !result <> None) t.loop;
  match !result with
  | Some r -> r
  | None -> (Xrl_error.Internal_error "event loop idle before reply", [])

let instance_name t = Finder.instance_name t.target

let registered_methods t =
  Hashtbl.fold (fun _ e acc -> e.mid :: acc) t.methods []
  |> List.sort compare
let class_name t = t.cls
let finder t = t.fndr
let eventloop t = t.loop
let pending_sends t = t.pending

let shutdown t =
  if t.live then begin
    t.live <- false;
    (* Remove our invalidation hook and lifetime watches first: past
       this point the Finder must not keep the dead router — or the
       component its callbacks reach — alive. *)
    t.unhook ();
    t.unhook <- (fun () -> ());
    List.iter (fun unwatch -> unwatch ()) t.unwatch;
    t.unwatch <- [];
    Finder.unregister_target t.fndr t.target;
    List.iter (fun (l : Pf.listener) -> l.shutdown ()) t.listeners;
    Dest.iter (fun _ (e : sender_entry) -> e.sender.Pf.close_sender ())
      t.senders;
    Dest.reset t.senders;
    Rkey.reset t.rcache;
    (* Sweep whatever is still unsettled — calls waiting out a retry
       backoff, calls whose transport never reported — in send order.
       Settlement is idempotent, so anything the transports already
       failed above is skipped. After this, [pending_sends] is 0. *)
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.inflight [] in
    List.iter
      (fun id ->
         match Hashtbl.find_opt t.inflight id with
         | Some fail -> fail (Xrl_error.Send_failed "router shut down")
         | None -> ())
      (List.sort compare ids)
  end
