let src = Logs.Src.create "xorp.eventloop" ~doc:"camlXORP event loop"

module Log = (val Logs.src_log src : Logs.LOG)

(* The timer queue is a heap of runs. A run is a chain of timers that
   share a deadline and were scheduled one straight after another; the
   heap orders runs by (deadline, creation seq) and a run fires its
   members in chain order. Runs split the timers into stretches of
   consecutive scheduling, so that is exactly the (deadline, scheduling
   seq) order of one heap entry per timer, while a burst of
   same-deadline timers (a netsim link's packets, a fan-out of
   [after 0.0]) costs one heap entry and O(1) per timer. *)
type timer = {
  mutable cb : unit -> unit; (* one-shot callback; [noop] once done *)
  mutable every : every option; (* [Some] while a periodic timer lives *)
  mutable next : timer; (* next member of the run; unread on the last *)
  mutable state : state;
  owner : t option; (* [None] only for [no_timer] *)
}

and every = { ival : float; mutable deadline : float; tick : unit -> bool }

and state =
  | Queued (* pending, linked in a run *)
  | Dead (* cancelled, still linked until a sweep or purge drops it *)
  | Picked (* pending, unlinked into a tie-break batch *)
  | Running (* a periodic timer inside its own callback *)
  | Gone (* fired or cancelled, unlinked *)

and run = {
  mutable head : timer;
  mutable last : timer;
  due : float;
}

and task = {
  weight : int;
  slice : unit -> [ `Continue | `Done ];
  mutable live : bool;
  task_loop : t_ref;
}

and t = {
  mode : [ `Real | `Sim ];
  mutable vclock : float;
  timers : run Minheap.t;
  (* The run a timer joins when it has the same deadline, or [no_run].
     Sealed at the start of every sweep, so that a timer scheduled by a
     sweep's callbacks never joins a run the sweep is firing. *)
  mutable tail : run;
  mutable live_timers : int;
  (* Timers linked in runs, and how many of those are [Dead]. *)
  mutable queued : int;
  mutable dead : int;
  self : t option; (* every timer's [owner], allocated once *)
  deferred : (unit -> unit) Queue.t;
  tasks : task Queue.t;
  mutable live_tasks : int;
  readers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  writers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  mutable stopping : bool;
  mutable dispatched : int;
  mutable tie_break : (int -> int) option;
}

and t_ref = t

let noop () = ()

let rec no_timer =
  { cb = noop; every = None; next = no_timer; state = Gone; owner = None }

let no_run = { head = no_timer; last = no_timer; due = nan }

let create ?(mode = `Sim) () =
  let rec t =
    {
      mode;
      vclock = 0.0;
      timers = Minheap.create ~dummy:no_run ();
      tail = no_run;
      live_timers = 0;
      queued = 0;
      dead = 0;
      self = Some t;
      deferred = Queue.create ();
      tasks = Queue.create ();
      live_tasks = 0;
      readers = Hashtbl.create 8;
      writers = Hashtbl.create 8;
      stopping = false;
      dispatched = 0;
      tie_break = None;
    }
  in
  t

let mode t = t.mode
let set_tie_break t f = t.tie_break <- f

let now t =
  match t.mode with
  | `Real -> Unix.gettimeofday ()
  | `Sim -> t.vclock

(* Cancelled timers may outnumber pending ones by this many before a
   cancel purges them. *)
let purge_slack = 64

(* Link [tm] into the queue at [time]: onto the tail run when it has
   the same deadline, else as a new run. *)
let enqueue t time tm =
  let r = t.tail in
  if r != no_run && r.due = time then begin
    r.last.next <- tm;
    r.last <- tm
  end
  else begin
    let r = { head = tm; last = tm; due = time } in
    Minheap.push t.timers time r;
    t.tail <- r
  end;
  t.queued <- t.queued + 1

let at t time cb =
  let tm =
    { cb; every = None; next = no_timer; state = Queued; owner = t.self }
  in
  enqueue t time tm;
  t.live_timers <- t.live_timers + 1;
  tm

let after t delay cb = at t (now t +. delay) cb

let periodic t ival tick =
  if ival <= 0.0 then invalid_arg "Eventloop.periodic";
  let deadline = now t +. ival in
  let tm =
    { cb = noop; every = Some { ival; deadline; tick }; next = no_timer;
      state = Queued; owner = t.self }
  in
  enqueue t deadline tm;
  t.live_timers <- t.live_timers + 1;
  tm

(* A cancelled timer, already unlinked, leaves the queue for good. *)
let bury t tm =
  tm.state <- Gone;
  t.dead <- t.dead - 1

(* Unlink the cancelled members of run [r]; false when none is left. *)
let compact t r =
  let last = r.last in
  let kept = ref no_timer in
  let tm = ref r.head in
  let fin = ref false in
  while not !fin do
    let cur = !tm in
    fin := cur == last;
    tm := cur.next;
    match cur.state with
    | Dead ->
      cur.next <- no_timer;
      t.queued <- t.queued - 1;
      bury t cur
    | _ ->
      if !kept == no_timer then r.head <- cur else (!kept).next <- cur;
      kept := cur
  done;
  if !kept == no_timer then begin
    if r == t.tail then t.tail <- no_run;
    false
  end
  else begin
    r.last <- !kept;
    true
  end

(* One O(n) pass: every cancelled timer leaves the queue, every emptied
   run leaves the heap, and the surviving runs keep their keys. *)
let purge t = Minheap.filter t.timers (compact t)

let cancel tm =
  match (tm.owner, tm.state) with
  | Some t, ((Queued | Picked | Running) as state) ->
    tm.cb <- noop;
    tm.every <- None;
    t.live_timers <- t.live_timers - 1;
    if state == Queued then begin
      tm.state <- Dead;
      t.dead <- t.dead + 1;
      if t.dead > t.live_timers + purge_slack then purge t
    end
    else tm.state <- Gone
  | _ -> ()

let timer_pending tm =
  match tm.state with Queued | Picked | Running -> true | Dead | Gone -> false

let defer t cb = Queue.push cb t.deferred

let add_task t ?(weight = 1) slice =
  if weight < 1 then invalid_arg "Eventloop.add_task";
  let task = { weight; slice; live = true; task_loop = t } in
  Queue.push task t.tasks;
  t.live_tasks <- t.live_tasks + 1;
  task

(* Retirement is the single place the counter goes down, guarded so a
   task removed and then reaped (or removed twice) decrements exactly
   once: [live_tasks] is always the number of tasks that still have
   slices to run, which [quiescent] and [run_until_idle] rely on. *)
let retire_task task =
  if task.live then begin
    task.live <- false;
    task.task_loop.live_tasks <- task.task_loop.live_tasks - 1
  end

let remove_task = retire_task

let add_reader t fd cb = Hashtbl.replace t.readers fd cb
let remove_reader t fd = Hashtbl.remove t.readers fd
let add_writer t fd cb = Hashtbl.replace t.writers fd cb
let remove_writer t fd = Hashtbl.remove t.writers fd

let dispatch t cb =
  t.dispatched <- t.dispatched + 1;
  try cb () with
  | exn ->
    Log.err (fun m ->
        m "callback raised %s; continuing" (Printexc.to_string exn))

(* Run the deferred events queued at entry (new deferrals run on the
   next iteration, so a self-deferring event cannot starve timers). *)
let run_deferred t =
  let n = Queue.length t.deferred in
  for _ = 1 to n do
    match Queue.take_opt t.deferred with
    | Some cb -> dispatch t cb
    | None -> ()
  done;
  n > 0

let fire t tm =
  match tm.every with
  | None ->
    tm.state <- Gone;
    t.live_timers <- t.live_timers - 1;
    let cb = tm.cb in
    tm.cb <- noop;
    dispatch t cb
  | Some e ->
    tm.state <- Running;
    t.dispatched <- t.dispatched + 1;
    let again =
      try e.tick () with
      | exn ->
        Log.err (fun m ->
            m "periodic timer raised %s; stopping it" (Printexc.to_string exn));
        false
    in
    (* A tick may cancel its own timer; then it is already [Gone]. *)
    if tm.state == Running then
      if again then begin
        (* Advance from the scheduled deadline to avoid drift, but
           never reschedule into the past. *)
        let next = ref (e.deadline +. e.ival) in
        while !next <= now t do next := !next +. e.ival done;
        e.deadline <- !next;
        tm.state <- Queued;
        enqueue t !next tm
      end
      else begin
        tm.state <- Gone;
        tm.every <- None;
        t.live_timers <- t.live_timers - 1
      end

(* Pop the top run [r] off the heap. *)
let drop_top t r =
  ignore (Minheap.pop t.timers);
  if r == t.tail then t.tail <- no_run

(* Unlink and return the head of the top run [r], popping [r] when it
   was the last member. *)
let take_head t r =
  let tm = r.head in
  if tm == r.last then drop_top t r
  else begin
    r.head <- tm.next;
    tm.next <- no_timer
  end;
  t.queued <- t.queued - 1;
  tm

(* Unlink the cancelled members at the front of the top run [r],
   dropping the run if none is left; true when [r] is still on top with
   a pending head. *)
let rec trim t r =
  match r.head.state with
  | Dead ->
    let emptied = r.head == r.last in
    bury t (take_head t r);
    (not emptied) && trim t r
  | _ -> true

(* Whether a pending timer is queued; if so the top run's head is one
   and [next_due] is the earliest deadline. *)
let rec has_pending t =
  (not (Minheap.is_empty t.timers))
  && (trim t (Minheap.peek t.timers) || has_pending t)

(* The top run's deadline, read from the float the run already holds:
   the libraries are built without cross-module inlining, so a float
   returned by [Minheap] would be boxed afresh on every call. *)
let next_due t = (Minheap.peek t.timers).due
let due_now t = has_pending t && next_due t <= now t

(* Move every member of the top run [r] into [batch] (pending ones) or
   out of the queue (cancelled ones), popping [r]. *)
let rec gather t r batch =
  let emptied = r.head == r.last in
  let tm = take_head t r in
  (match tm.state with
   | Dead -> bury t tm
   | _ ->
     tm.state <- Picked;
     batch := tm :: !batch);
  if not emptied then gather t r batch

(* The tie-break path: take every pending timer due at the top
   deadline and scheduled before the sweep, in scheduling order, and
   let the hook choose the order they fire in. *)
let fire_batch t pick cutoff =
  let h = t.timers in
  let due = next_due t in
  let batch = ref [] in
  while has_pending t && next_due t = due && Minheap.peek_seq h < cutoff do
    gather t (Minheap.peek h) batch
  done;
  let arr = Array.of_list (List.rev !batch) in
  let n = ref (Array.length arr) in
  while !n > 0 do
    let i = if !n = 1 then 0 else pick !n in
    let i = if i < 0 || i >= !n then 0 else i in
    let tm = arr.(i) in
    arr.(i) <- arr.(!n - 1);
    n := !n - 1;
    (* A batch member's callback may cancel a later member. *)
    if tm.state == Picked then fire t tm
  done

(* One timer sweep. Only runs that existed when the sweep started are
   eligible, and the sealed tail keeps the sweep's own timers out of
   them: a timer scheduled by a callback we dispatch — even with a
   deadline in the past — waits for the next loop iteration, so it
   fires exactly once there and a self-rescheduling past-deadline timer
   cannot spin this sweep forever.

   Equal-deadline timers fire in FIFO (scheduling) order unless a
   [tie_break] hook is installed, in which case the hook picks which of
   the n due same-deadline timers fires next — the deterministic
   schedule-fuzzing point used by the simulation harness. *)
let fire_due_timers t progressed =
  t.tail <- no_run;
  let h = t.timers in
  let cutoff = Minheap.stamp h in
  let progressed = ref progressed in
  while has_pending t && Minheap.peek_seq h < cutoff && next_due t <= now t do
    progressed := true;
    match t.tie_break with
    | None -> fire t (take_head t (Minheap.peek h))
    | Some pick -> fire_batch t pick cutoff
  done;
  !progressed

(* Run one background task for [weight] slices, round-robin. *)
let run_one_task t =
  let rec skim () =
    match Queue.take_opt t.tasks with
    | None -> false
    | Some task when not task.live ->
      (* Already retired by [remove_task]; just drop the queue slot. *)
      skim ()
    | Some task ->
      let rec slices n =
        if n = 0 || not task.live then `Continue
        else
          match (try task.slice () with
                 | exn ->
                   Log.err (fun m ->
                       m "background task raised %s; retiring it"
                         (Printexc.to_string exn));
                   `Done)
          with
          | `Done -> `Done
          | `Continue -> slices (n - 1)
      in
      t.dispatched <- t.dispatched + 1;
      (match slices task.weight with
       | `Done -> retire_task task
       | `Continue -> if task.live then Queue.push task t.tasks);
      true
  in
  skim ()

let poll_fds t timeout =
  let rds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.readers [] in
  let wrs = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.writers [] in
  if rds = [] && wrs = [] then begin
    if timeout > 0.0 then Unix.sleepf (min timeout 0.1);
    false
  end
  else begin
    match Unix.select rds wrs [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    | rready, wready, _ ->
      List.iter
        (fun fd ->
           match Hashtbl.find_opt t.readers fd with
           | Some cb -> dispatch t cb
           | None -> ())
        rready;
      List.iter
        (fun fd ->
           match Hashtbl.find_opt t.writers fd with
           | Some cb -> dispatch t cb
           | None -> ())
        wready;
      rready <> [] || wready <> []
  end

let has_work t =
  not (Queue.is_empty t.deferred)
  || t.live_timers > 0 || t.live_tasks > 0
  || (t.mode = `Real
      && (Hashtbl.length t.readers > 0 || Hashtbl.length t.writers > 0))

(* One iteration; [cap] bounds how far the virtual clock may jump. *)
let run_once_capped t cap =
  let progressed = run_deferred t in
  let progressed = fire_due_timers t progressed in
  let progressed =
    match t.mode with
    | `Real ->
      let timeout =
        if progressed || t.live_tasks > 0
           || not (Queue.is_empty t.deferred)
        then 0.0
        else if has_pending t then
          max 0.0 (min (next_due t -. now t) 0.1)
        else 0.1
      in
      let fd_progress = poll_fds t timeout in
      progressed || fd_progress
    | `Sim -> progressed
  in
  if progressed then true
  else if not (Queue.is_empty t.deferred) then true
  else if run_one_task t then true
  else
    match t.mode with
    | `Real -> has_work t
    | `Sim ->
      if has_pending t then begin
        let d = next_due t in
        let target = match cap with Some c when c < d -> c | _ -> d in
        if target > t.vclock then begin
          t.vclock <- target;
          true
        end
        else target = d (* due now; next iteration fires it *)
      end
      else
        match cap with
        | Some c when c > t.vclock ->
          t.vclock <- c;
          false
        | _ -> false

let run_once t = run_once_capped t None

let run ?(until = fun () -> false) t =
  t.stopping <- false;
  let rec loop () =
    if t.stopping || until () then ()
    else if run_once t then loop ()
    else ()
  in
  loop ()

let run_until_time t target =
  t.stopping <- false;
  (* Keep iterating while now <= target so that work due exactly at the
     target time runs before we return. *)
  let cap = Some target in
  let rec loop () =
    if t.stopping || now t > target then ()
    else begin
      let progress = run_once_capped t cap in
      if progress then loop ()
    end
  in
  loop ()

let run_until_idle t =
  t.stopping <- false;
  let work_now () =
    (not (Queue.is_empty t.deferred))
    || t.live_tasks > 0
    || due_now t
  in
  while (not t.stopping) && work_now () do
    ignore (run_once_capped t (Some (now t)))
  done

let stop t = t.stopping <- true
let events_dispatched t = t.dispatched
let live_timers t = t.live_timers
let queued_timers t = t.queued
let live_tasks t = t.live_tasks

let quiescent t =
  Queue.is_empty t.deferred
  && t.live_tasks = 0
  && not (due_now t)
