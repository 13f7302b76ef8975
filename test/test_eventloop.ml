(* Tests for the event loop: timers, deferred events, background
   tasks, simulated-clock behaviour, and the real clock. *)

let check = Alcotest.check

let test_sim_clock_starts_at_zero () =
  let loop = Eventloop.create () in
  check (Alcotest.float 0.0) "t=0" 0.0 (Eventloop.now loop)

let test_timer_fires_and_advances_clock () =
  let loop = Eventloop.create () in
  let fired_at = ref (-1.0) in
  ignore (Eventloop.after loop 5.0 (fun () -> fired_at := Eventloop.now loop));
  Eventloop.run loop;
  check (Alcotest.float 1e-9) "fired at t=5" 5.0 !fired_at;
  check (Alcotest.float 1e-9) "clock stopped at 5" 5.0 (Eventloop.now loop)

let test_timer_order () =
  let loop = Eventloop.create () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  ignore (Eventloop.after loop 3.0 (mark "c"));
  ignore (Eventloop.after loop 1.0 (mark "a"));
  ignore (Eventloop.after loop 2.0 (mark "b"));
  Eventloop.run loop;
  check (Alcotest.list Alcotest.string) "deadline order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_equal_deadline_fifo () =
  let loop = Eventloop.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Eventloop.after loop 1.0 (fun () -> order := i :: !order))
  done;
  Eventloop.run loop;
  check (Alcotest.list Alcotest.int) "fifo among equal deadlines"
    [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_past_deadline_fires_once_sim () =
  let loop = Eventloop.create () in
  let fires = ref 0 in
  ignore (Eventloop.after loop (-5.0) (fun () -> incr fires));
  ignore (Eventloop.at loop (-3.0) (fun () -> incr fires));
  Eventloop.run loop;
  check Alcotest.int "each fired exactly once" 2 !fires;
  check (Alcotest.float 1e-9) "clock never went backwards" 0.0
    (Eventloop.now loop)

let test_past_deadline_fires_once_real () =
  let loop = Eventloop.create ~mode:`Real () in
  let fires = ref 0 in
  ignore (Eventloop.after loop (-1.0) (fun () -> incr fires));
  Eventloop.run ~until:(fun () -> !fires > 0) loop;
  Eventloop.run_until_idle loop;
  check Alcotest.int "fired exactly once" 1 !fires

let test_past_deadline_next_iteration () =
  (* A callback rescheduling into the past waits for the next sweep:
     the other timer due in this sweep runs first, and the chain cannot
     monopolise a single iteration. *)
  let loop = Eventloop.create () in
  let order = ref [] in
  let reschedules = ref 0 in
  let rec a () =
    order := "a" :: !order;
    incr reschedules;
    if !reschedules < 3 then ignore (Eventloop.after loop (-1.0) a)
  in
  ignore (Eventloop.after loop (-1.0) a);
  ignore (Eventloop.after loop (-1.0) (fun () -> order := "b" :: !order));
  Eventloop.run loop;
  check (Alcotest.list Alcotest.string) "reschedule waits for next sweep"
    [ "a"; "b"; "a"; "a" ] (List.rev !order)

let test_tie_break_hook () =
  let loop = Eventloop.create () in
  let order = ref [] in
  for i = 1 to 4 do
    ignore (Eventloop.after loop 1.0 (fun () -> order := i :: !order))
  done;
  ignore (Eventloop.after loop 2.0 (fun () -> order := 99 :: !order));
  (* Always pick the last of the due same-deadline batch. *)
  Eventloop.set_tie_break loop (Some (fun n -> n - 1));
  Eventloop.run loop;
  Eventloop.set_tie_break loop None;
  check (Alcotest.list Alcotest.int) "hook reorders only the equal batch"
    [ 4; 3; 2; 1; 99 ] (List.rev !order)

let test_cancel () =
  let loop = Eventloop.create () in
  let fired = ref false in
  let tm = Eventloop.after loop 1.0 (fun () -> fired := true) in
  check Alcotest.bool "pending" true (Eventloop.timer_pending tm);
  Eventloop.cancel tm;
  check Alcotest.bool "not pending" false (Eventloop.timer_pending tm);
  Eventloop.run loop;
  check Alcotest.bool "never fired" false !fired

let test_periodic () =
  let loop = Eventloop.create () in
  let count = ref 0 in
  ignore
    (Eventloop.periodic loop 2.0 (fun () ->
         incr count;
         !count < 4));
  Eventloop.run loop;
  check Alcotest.int "fired 4 times" 4 !count;
  check (Alcotest.float 1e-9) "stopped at t=8" 8.0 (Eventloop.now loop)

let test_periodic_cancel_mid_flight () =
  let loop = Eventloop.create () in
  let count = ref 0 in
  let tm = ref None in
  tm :=
    Some
      (Eventloop.periodic loop 1.0 (fun () ->
           incr count;
           if !count = 2 then Option.iter Eventloop.cancel !tm;
           true));
  Eventloop.run loop;
  check Alcotest.int "stopped by cancel" 2 !count

let test_defer_runs_before_timers () =
  let loop = Eventloop.create () in
  let order = ref [] in
  ignore (Eventloop.after loop 0.0 (fun () -> order := "timer" :: !order));
  Eventloop.defer loop (fun () -> order := "defer" :: !order);
  Eventloop.run loop;
  check (Alcotest.list Alcotest.string) "defer first" [ "defer"; "timer" ]
    (List.rev !order)

let test_self_defer_no_starvation () =
  let loop = Eventloop.create () in
  let defers = ref 0 in
  let timer_fired = ref false in
  let rec chain () =
    incr defers;
    if not !timer_fired && !defers < 1000 then Eventloop.defer loop chain
  in
  Eventloop.defer loop chain;
  ignore (Eventloop.after loop 0.0 (fun () -> timer_fired := true));
  Eventloop.run loop;
  check Alcotest.bool "timer got through" true !timer_fired;
  check Alcotest.bool "chain was cut short by the timer" true (!defers < 1000)

let test_background_task_runs_when_idle () =
  let loop = Eventloop.create () in
  let slices = ref 0 in
  ignore
    (Eventloop.add_task loop (fun () ->
         incr slices;
         if !slices >= 10 then `Done else `Continue));
  Eventloop.run loop;
  check Alcotest.int "all slices ran" 10 !slices

let test_background_task_yields_to_events () =
  (* A long task must not delay timer events: timers keep firing while
     the task chips away. *)
  let loop = Eventloop.create () in
  let slices = ref 0 in
  let fire_times = ref [] in
  ignore
    (Eventloop.add_task loop (fun () ->
         incr slices;
         if !slices >= 10000 then `Done else `Continue));
  ignore
    (Eventloop.periodic loop 1.0 (fun () ->
         fire_times := !slices :: !fire_times;
         List.length !fire_times < 3));
  Eventloop.run loop;
  check Alcotest.int "task finished" 10000 !slices;
  check Alcotest.int "timer fired thrice" 3 (List.length !fire_times)

let test_task_remove () =
  let loop = Eventloop.create () in
  let slices = ref 0 in
  let task = ref None in
  task :=
    Some
      (Eventloop.add_task loop (fun () ->
           incr slices;
           if !slices = 3 then Option.iter Eventloop.remove_task !task;
           `Continue));
  Eventloop.run loop;
  check Alcotest.int "self-removal honoured" 3 !slices

let test_task_accounting_exact () =
  (* remove_task must release the live_tasks slot immediately, not when
     the dead task is next dequeued: quiescent/live_tasks would
     otherwise over-report until the next task sweep. *)
  let loop = Eventloop.create () in
  let t1 = Eventloop.add_task loop (fun () -> `Continue) in
  let t2 = Eventloop.add_task loop (fun () -> `Continue) in
  check Alcotest.int "two live" 2 (Eventloop.live_tasks loop);
  Eventloop.remove_task t1;
  check Alcotest.int "eager decrement" 1 (Eventloop.live_tasks loop);
  Eventloop.remove_task t1;
  check Alcotest.int "idempotent" 1 (Eventloop.live_tasks loop);
  Eventloop.remove_task t2;
  check Alcotest.int "none live" 0 (Eventloop.live_tasks loop);
  check Alcotest.bool "quiescent without a sweep" true
    (Eventloop.quiescent loop);
  (* The stale queue slots are reclaimed without double-decrementing. *)
  Eventloop.run_until_idle loop;
  check Alcotest.int "still zero after sweep" 0 (Eventloop.live_tasks loop)

let test_task_accounting_self_remove () =
  (* A slice that removes its own task (then returns either way) must
     release exactly one slot. *)
  let loop = Eventloop.create () in
  let task = ref None in
  task :=
    Some
      (Eventloop.add_task loop (fun () ->
           Option.iter Eventloop.remove_task !task;
           `Done));
  Eventloop.run_until_idle loop;
  check Alcotest.int "no underflow" 0 (Eventloop.live_tasks loop);
  check Alcotest.bool "quiescent" true (Eventloop.quiescent loop)

let test_task_weights () =
  let loop = Eventloop.create () in
  let a = ref 0 and b = ref 0 in
  let first_10 = ref [] in
  let record tag = if List.length !first_10 < 12 then first_10 := tag :: !first_10 in
  ignore
    (Eventloop.add_task loop ~weight:3 (fun () ->
         incr a; record "a";
         if !a >= 9 then `Done else `Continue));
  ignore
    (Eventloop.add_task loop ~weight:1 (fun () ->
         incr b; record "b";
         if !b >= 3 then `Done else `Continue));
  Eventloop.run loop;
  check Alcotest.int "a total" 9 !a;
  check Alcotest.int "b total" 3 !b;
  (* weight 3 task runs 3 slices per turn *)
  check (Alcotest.list Alcotest.string) "interleaving"
    [ "a"; "a"; "a"; "b"; "a"; "a"; "a"; "b"; "a"; "a"; "a"; "b" ]
    (List.rev !first_10)

let test_run_until_time () =
  let loop = Eventloop.create () in
  let count = ref 0 in
  ignore (Eventloop.periodic loop 10.0 (fun () -> incr count; true));
  Eventloop.run_until_time loop 35.0;
  check Alcotest.int "3 ticks by t=35" 3 !count;
  check (Alcotest.float 1e-9) "clock exactly 35" 35.0 (Eventloop.now loop);
  Eventloop.run_until_time loop 40.0;
  check Alcotest.int "4th tick at t=40" 4 !count

let test_run_until_time_no_timers () =
  let loop = Eventloop.create () in
  Eventloop.run_until_time loop 12.5;
  check (Alcotest.float 1e-9) "clock advanced to target" 12.5
    (Eventloop.now loop)

let test_run_until_idle_leaves_future_timers () =
  let loop = Eventloop.create () in
  let fired = ref false in
  let deferred = ref false in
  ignore (Eventloop.after loop 100.0 (fun () -> fired := true));
  Eventloop.defer loop (fun () -> deferred := true);
  Eventloop.run_until_idle loop;
  check Alcotest.bool "deferred ran" true !deferred;
  check Alcotest.bool "future timer untouched" false !fired;
  check (Alcotest.float 1e-9) "clock did not jump" 0.0 (Eventloop.now loop)

let test_stop () =
  let loop = Eventloop.create () in
  let count = ref 0 in
  ignore
    (Eventloop.periodic loop 1.0 (fun () ->
         incr count;
         if !count = 5 then Eventloop.stop loop;
         true));
  Eventloop.run loop;
  check Alcotest.int "stopped at 5" 5 !count

let test_exception_in_callback_does_not_kill_loop () =
  let loop = Eventloop.create () in
  let after = ref false in
  ignore (Eventloop.after loop 1.0 (fun () -> failwith "boom"));
  ignore (Eventloop.after loop 2.0 (fun () -> after := true));
  Eventloop.run loop;
  check Alcotest.bool "later timer still fired" true !after

let test_real_mode_timer () =
  let loop = Eventloop.create ~mode:`Real () in
  let fired = ref false in
  let t0 = Unix.gettimeofday () in
  ignore (Eventloop.after loop 0.05 (fun () -> fired := true));
  Eventloop.run ~until:(fun () -> !fired) loop;
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "fired" true !fired;
  if dt < 0.04 || dt > 2.0 then Alcotest.failf "wall delay off: %.3fs" dt

let test_real_mode_fd () =
  let loop = Eventloop.create ~mode:`Real () in
  let r, w = Unix.pipe () in
  let got = ref "" in
  Eventloop.add_reader loop r (fun () ->
      let buf = Bytes.create 16 in
      let n = Unix.read r buf 0 16 in
      got := Bytes.sub_string buf 0 n;
      Eventloop.remove_reader loop r);
  ignore (Eventloop.after loop 0.01 (fun () ->
      ignore (Unix.write_substring w "ping" 0 4)));
  Eventloop.run ~until:(fun () -> !got <> "") loop;
  check Alcotest.string "read the ping" "ping" !got;
  Unix.close r;
  Unix.close w

(* A loop holds no file descriptor of its own: creating many [`Real]
   loops must not grow the process's descriptor table. *)
let test_real_mode_holds_no_fds () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  let loops = List.init 200 (fun _ -> Eventloop.create ~mode:`Real ()) in
  check Alcotest.int "fds after 200 loops" before (open_fds ());
  ignore (Sys.opaque_identity loops)

(* The hold-timer pattern: one timer cancelled and re-armed over and
   over, beside a few unrelated pending timers. Cancelled timers must
   not pile up: the queue stays within its documented bound (pending
   timers plus at most pending + 64 cancelled ones). *)
let test_rearm_keeps_queue_bounded () =
  let loop = Eventloop.create () in
  for i = 1 to 10 do
    ignore (Eventloop.after loop (float_of_int i) ignore)
  done;
  let hold = ref (Eventloop.after loop 90.0 ignore) in
  let worst = ref 0 in
  for _ = 1 to 100_000 do
    Eventloop.cancel !hold;
    hold := Eventloop.after loop 90.0 ignore;
    let live = Eventloop.live_timers loop in
    worst := max !worst (Eventloop.queued_timers loop - (2 * live))
  done;
  check Alcotest.int "live timers" 11 (Eventloop.live_timers loop);
  if !worst > 64 then
    Alcotest.failf "queue exceeded twice the live timers by %d" !worst;
  Eventloop.run loop;
  check Alcotest.int "nothing left queued" 0 (Eventloop.queued_timers loop);
  check Alcotest.int "nothing left live" 0 (Eventloop.live_timers loop)

(* Fired and cancelled timers must not keep their closures (and what
   those capture) alive — not from the queue, and not from a timer
   handle the owner still holds. *)
let test_done_timers_release_closures () =
  let loop = Eventloop.create () in
  let w = Weak.create 3 in
  let arm i delay =
    let payload = Bytes.make 64 'x' in
    Weak.set w i (Some payload);
    Eventloop.after loop delay (fun () -> ignore (Bytes.length payload))
  in
  let fired = arm 0 1.0 in
  let cancelled = arm 1 50.0 in
  let _ = arm 2 2.0 in
  ignore (Eventloop.after loop 100.0 ignore);
  Eventloop.cancel cancelled;
  Eventloop.run_until_time loop 3.0;
  Gc.full_major ();
  check Alcotest.bool "fired closure collected, handle still held" false
    (Weak.check w 0);
  check Alcotest.bool "cancelled closure collected while still queued" false
    (Weak.check w 1);
  check Alcotest.bool "fired closure collected" false (Weak.check w 2);
  check Alcotest.bool "handles stay usable" false
    (Eventloop.timer_pending fired || Eventloop.timer_pending cancelled)

(* Same-deadline timers share a queue entry, but cancelling some of them
   must still leave the rest firing in order, and a purge in the middle
   of a run must keep the run's order and its open tail. *)
let test_run_cancel_and_purge () =
  let loop = Eventloop.create () in
  let order = ref [] in
  let tms =
    Array.init 200 (fun i ->
        Eventloop.at loop 5.0 (fun () -> order := i :: !order))
  in
  (* Enough cancels to force a purge while the run is still the tail. *)
  Array.iteri (fun i tm -> if i mod 4 <> 3 then Eventloop.cancel tm) tms;
  check Alcotest.bool "purged down to the pending ones" true
    (Eventloop.queued_timers loop <= (2 * Eventloop.live_timers loop) + 64);
  (* Joins the same run after the purge. *)
  ignore (Eventloop.at loop 5.0 (fun () -> order := 1000 :: !order));
  Eventloop.run loop;
  check (Alcotest.list Alcotest.int) "survivors fire in scheduling order"
    (List.filter (fun i -> i mod 4 = 3) (List.init 200 Fun.id) @ [ 1000 ])
    (List.rev !order)

(* Minheap, directly. Values carry their own priority, so a drain shows
   the order entries came out in. *)
let drain h =
  let rec go acc =
    if Minheap.is_empty h then List.rev acc else go (Minheap.pop h :: acc)
  in
  go []

let push h p v = Minheap.push h p (p, v)

let test_minheap () =
  let h = Minheap.create ~dummy:(0.0, "") () in
  check Alcotest.bool "empty" true (Minheap.is_empty h);
  List.iter (fun (p, v) -> push h p v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.0, "a2") ];
  check Alcotest.int "size" 4 (Minheap.size h);
  check (Alcotest.list Alcotest.string) "sorted, stable"
    [ "a"; "a2"; "b"; "c" ] (List.map snd (drain h));
  check Alcotest.bool "pop on empty raises" true
    (match Minheap.pop h with _ -> false | exception Invalid_argument _ -> true)

let test_minheap_stamp_and_peek () =
  let h = Minheap.create ~dummy:(0.0, "") () in
  check Alcotest.int "fresh heap stamp" 0 (Minheap.stamp h);
  push h 2.0 "x";
  push h 1.0 "y";
  push h 1.0 "z";
  check Alcotest.int "stamp counts pushes" 3 (Minheap.stamp h);
  check Alcotest.int "earliest equal push wins" 1 (Minheap.peek_seq h);
  check Alcotest.string "min priority first" "y" (snd (Minheap.peek h));
  ignore (Minheap.pop h);
  check Alcotest.int "then the later equal push" 2 (Minheap.peek_seq h);
  check Alcotest.string "still the equal batch" "z" (snd (Minheap.peek h));
  check Alcotest.int "pops do not move the stamp" 3 (Minheap.stamp h)

let test_minheap_filter () =
  let h = Minheap.create ~dummy:(0.0, -1) () in
  for i = 0 to 199 do
    push h (float_of_int (i mod 10)) i
  done;
  (* Few enough survivors that the storage shrinks too. *)
  Minheap.filter h (fun (_, v) -> v mod 5 = 0);
  check Alcotest.int "kept a fifth" 40 (Minheap.size h);
  let want =
    List.filter (fun v -> v mod 5 = 0) (List.init 200 Fun.id)
    |> List.map (fun v -> (float_of_int (v mod 10), v))
    |> List.stable_sort (fun (p, _) (q, _) -> compare p q)
  in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.0) Alcotest.int))
    "order by (priority, seq) survives" want (drain h)

(* A popped value must not stay reachable from the heap's storage. *)
let test_minheap_pop_releases () =
  let h = Minheap.create ~dummy:(ref 0) () in
  let w = Weak.create 2 in
  let push_tracked i p =
    let v = ref p in
    Weak.set w i (Some v);
    Minheap.push h (float_of_int p) v
  in
  push_tracked 0 1;
  push_tracked 1 2;
  ignore (Minheap.pop h);
  ignore (Minheap.pop h);
  Gc.full_major ();
  check Alcotest.bool "first popped value collected" false (Weak.check w 0);
  check Alcotest.bool "last popped value collected" false (Weak.check w 1)

let prop_minheap_sorts =
  QCheck.Test.make ~name:"minheap pops in sorted order" ~count:300
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun items ->
       let h = Minheap.create ~dummy:(0.0, 0) () in
       List.iter (fun (p, v) -> push h p v) items;
       let popped = List.map fst (drain h) in
       List.length popped = List.length items
       && popped = List.sort compare (List.map fst items))

(* Differential test of the timer queue against a reference model: one
   list entry per timer, sorted by (deadline, scheduling seq), swept
   with the loop's documented rules. Timers are named by handle (their
   creation index); a one-shot timer may carry effects that run when it
   fires, so sweeps schedule past-deadline and same-deadline timers and
   cancel members of the run they belong to. *)

type effect =
  | E_after of float (* schedule a plain timer this far ahead (<= 0 ok) *)
  | E_cancel of int (* cancel handle (index mod handles created) *)

type op =
  | At of float * effect list
  | After of float * effect list
  | Every of float * int (* interval, ticks that return true *)
  | Burst of float * int * int (* deadline, count, cancel every k-th *)
  | Cancel of int
  | Run_once
  | Run_until of float (* this far past now *)

let pp_effect = function
  | E_after d -> Printf.sprintf "after %g" d
  | E_cancel k -> Printf.sprintf "cancel %d" k

let pp_op = function
  | At (t, es) ->
    Printf.sprintf "at %g [%s]" t (String.concat "; " (List.map pp_effect es))
  | After (d, es) ->
    Printf.sprintf "after %g [%s]" d
      (String.concat "; " (List.map pp_effect es))
  | Every (i, n) -> Printf.sprintf "every %g x%d" i n
  | Burst (t, n, k) -> Printf.sprintf "burst %d at %g, cancel each %d" n t k
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Run_once -> "run_once"
  | Run_until d -> Printf.sprintf "run_until +%g" d

module Model = struct
  type entry = { dl : float; seq : int; h : int; mutable dead : bool }

  type t = {
    mutable now : float;
    mutable seq : int;
    mutable q : entry list; (* sorted by (dl, seq) *)
    mutable cur : entry option array; (* each handle's queued entry *)
    mutable handles : int;
    mutable live : int;
    mutable log : (int * float) list;
    every : (int, float * int ref) Hashtbl.t;
    effects : (int, effect list) Hashtbl.t;
    pick : (int -> int) option;
  }

  let create pick =
    { now = 0.0; seq = 0; q = []; cur = Array.make 16 None; handles = 0;
      live = 0; log = []; every = Hashtbl.create 8;
      effects = Hashtbl.create 8; pick }

  let before a b = a.dl < b.dl || (a.dl = b.dl && a.seq < b.seq)

  let insert m h dl =
    let e = { dl; seq = m.seq; h; dead = false } in
    m.seq <- m.seq + 1;
    let rec ins = function
      | x :: rest when before x e -> x :: ins rest
      | l -> e :: l
    in
    m.q <- ins m.q;
    m.cur.(h) <- Some e

  let new_handle m =
    let h = m.handles in
    if h = Array.length m.cur then begin
      let a = Array.make (2 * h) None in
      Array.blit m.cur 0 a 0 h;
      m.cur <- a
    end;
    m.handles <- h + 1;
    m.live <- m.live + 1;
    h

  let at m dl effects =
    let h = new_handle m in
    Hashtbl.replace m.effects h effects;
    insert m h dl

  let every m ival n =
    let h = new_handle m in
    Hashtbl.replace m.every h (ival, ref n);
    insert m h (m.now +. ival)

  let cancel m k =
    if m.handles > 0 then
      match m.cur.(k mod m.handles) with
      | Some e when not e.dead ->
        e.dead <- true;
        m.cur.(e.h) <- None;
        m.live <- m.live - 1
      | _ -> ()

  let fire m e =
    m.log <- (e.h, m.now) :: m.log;
    m.cur.(e.h) <- None;
    match Hashtbl.find_opt m.every e.h with
    | Some (ival, left) ->
      if !left > 0 then begin
        decr left;
        let next = ref (e.dl +. ival) in
        while !next <= m.now do next := !next +. ival done;
        insert m e.h !next
      end
      else m.live <- m.live - 1
    | None ->
      m.live <- m.live - 1;
      List.iter
        (function
          | E_after d -> at m (m.now +. d) []
          | E_cancel k -> cancel m k)
        (Hashtbl.find m.effects e.h)

  let rec drop_dead m =
    match m.q with
    | e :: rest when e.dead -> m.q <- rest; drop_dead m
    | _ -> ()

  let sweep m =
    let cutoff = m.seq in
    let fired = ref false in
    let rec loop () =
      drop_dead m;
      match m.q with
      | e :: rest when e.seq < cutoff && e.dl <= m.now ->
        fired := true;
        m.q <- rest;
        (match m.pick with
         | None -> fire m e
         | Some pick ->
           let rec collect acc =
             drop_dead m;
             match m.q with
             | x :: rest when x.dl = e.dl && x.seq < cutoff ->
               m.q <- rest;
               collect (x :: acc)
             | _ -> List.rev acc
           in
           let arr = Array.of_list (collect [ e ]) in
           let n = ref (Array.length arr) in
           while !n > 0 do
             let i = if !n = 1 then 0 else pick !n in
             let i = if i < 0 || i >= !n then 0 else i in
             let x = arr.(i) in
             arr.(i) <- arr.(!n - 1);
             decr n;
             if not x.dead then fire m x
           done);
        loop ()
      | _ -> ()
    in
    loop ();
    !fired

  let run_once m cap =
    if sweep m then true
    else begin
      drop_dead m;
      match m.q with
      | e :: _ ->
        let target = match cap with Some c when c < e.dl -> c | _ -> e.dl in
        if target > m.now then begin
          m.now <- target;
          true
        end
        else target = e.dl
      | [] ->
        (match cap with
         | Some c when c > m.now -> m.now <- c
         | _ -> ());
        false
    end

  let run_until m target =
    let rec loop () =
      if m.now <= target && run_once m (Some target) then loop ()
    in
    loop ()
end

(* Drive the real loop through the same ops, logging (handle, time). *)
let run_real pick ops =
  let loop = Eventloop.create () in
  Eventloop.set_tie_break loop pick;
  let log = ref [] in
  let timers = ref [||] and n = ref 0 in
  let remember tm =
    if !n = Array.length !timers then begin
      let a = Array.make (max 16 (2 * !n)) tm in
      Array.blit !timers 0 a 0 !n;
      timers := a
    end;
    !timers.(!n) <- tm;
    incr n
  in
  let cancel k = if !n > 0 then Eventloop.cancel !timers.(k mod !n) in
  let rec at time effects =
    let h = !n in
    let cb () =
      log := (h, Eventloop.now loop) :: !log;
      List.iter
        (function
          | E_after d -> at (Eventloop.now loop +. d) []
          | E_cancel k -> cancel k)
        effects
    in
    remember (Eventloop.at loop time cb)
  in
  let every ival count =
    let h = !n and left = ref count in
    remember
      (Eventloop.periodic loop ival (fun () ->
           log := (h, Eventloop.now loop) :: !log;
           if !left > 0 then (decr left; true) else false))
  in
  List.iter
    (function
      | At (t, es) -> at t es
      | After (d, es) -> at (Eventloop.now loop +. d) es
      | Every (i, c) -> every i c
      | Burst (t, c, k) ->
        let first = !n in
        for _ = 1 to c do at t [] done;
        for j = 0 to c - 1 do
          if j mod k = 0 then Eventloop.cancel !timers.(first + j)
        done
      | Cancel k -> cancel k
      | Run_once -> ignore (Eventloop.run_once loop)
      | Run_until d ->
        Eventloop.run_until_time loop (Eventloop.now loop +. d))
    ops;
  (List.rev !log, Eventloop.live_timers loop, Eventloop.now loop)

let run_model pick ops =
  let m = Model.create pick in
  List.iter
    (function
      | At (t, es) -> Model.at m t es
      | After (d, es) -> Model.at m (m.Model.now +. d) es
      | Every (i, c) -> Model.every m i c
      | Burst (t, c, k) ->
        let first = m.Model.handles in
        for _ = 1 to c do Model.at m t [] done;
        for j = 0 to c - 1 do
          if j mod k = 0 then Model.cancel m (first + j)
        done
      | Cancel k -> Model.cancel m k
      | Run_once -> ignore (Model.run_once m None)
      | Run_until d -> Model.run_until m (m.Model.now +. d))
    ops;
  (List.rev m.Model.log, m.Model.live, m.Model.now)

let gen_ops =
  let open QCheck.Gen in
  (* Few distinct times, so deadlines collide and runs form. *)
  let time = oneofl [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0 ] in
  let delay = oneofl [ -1.0; -0.5; 0.0; 0.0; 0.5; 1.0; 2.0 ] in
  let effect =
    frequency
      [ (2, map (fun d -> E_after d) delay);
        (2, map (fun k -> E_cancel k) (int_bound 200)) ]
  in
  let effects = list_size (int_bound 3) effect in
  let op =
    frequency
      [ (4, map2 (fun t es -> At (t, es)) time effects);
        (4, map2 (fun d es -> After (d, es)) delay effects);
        (1, map2 (fun i c -> Every (i, c)) (oneofl [ 0.5; 1.0; 2.0 ])
              (int_bound 4));
        (1, map3 (fun t c k -> Burst (t, c, k)) time (int_range 1 150)
              (int_range 1 4));
        (3, map (fun k -> Cancel k) (int_bound 200));
        (3, return Run_once);
        (2, map (fun d -> Run_until d) (oneofl [ 0.0; 0.5; 1.0; 4.0 ])) ]
  in
  list_size (int_range 1 80) op

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops ->
      String.concat "\n" (List.map pp_op ops))

(* Run both sides with the same ops and, when [hooked], the same seeded
   tie-break stream; then drain both to the end. *)
let same_firings hooked ops =
  let ops = ops @ [ Run_until 100.0 ] in
  let hook () =
    if hooked then
      let st = Random.State.make [| List.length ops |] in
      Some (fun n -> Random.State.int st (n + 1))
    else None
  in
  let real = run_real (hook ()) ops and model = run_model (hook ()) ops in
  if real <> model then begin
    let show (log, live, now) =
      Printf.sprintf "live %d now %g: %s" live now
        (String.concat " "
           (List.map (fun (h, t) -> Printf.sprintf "%d@%g" h t) log))
    in
    QCheck.Test.fail_reportf "real  %s\nmodel %s" (show real) (show model)
  end
  else true

let prop_queue_matches_model =
  QCheck.Test.make ~name:"timer queue fires like the sorted-list model"
    ~count:400 arb_ops (same_firings false)

let prop_queue_matches_model_hooked =
  QCheck.Test.make
    ~name:"timer queue fires like the sorted-list model (tie-break hook)"
    ~count:400 arb_ops (same_firings true)

let () =
  Alcotest.run "xorp_eventloop"
    [
      ( "timers",
        [
          Alcotest.test_case "sim clock starts at 0" `Quick
            test_sim_clock_starts_at_zero;
          Alcotest.test_case "fires and advances clock" `Quick
            test_timer_fires_and_advances_clock;
          Alcotest.test_case "deadline order" `Quick test_timer_order;
          Alcotest.test_case "equal deadlines are FIFO" `Quick
            test_equal_deadline_fifo;
          Alcotest.test_case "past deadline fires once (sim)" `Quick
            test_past_deadline_fires_once_sim;
          Alcotest.test_case "past deadline fires once (real)" `Quick
            test_past_deadline_fires_once_real;
          Alcotest.test_case "past reschedule waits a sweep" `Quick
            test_past_deadline_next_iteration;
          Alcotest.test_case "tie-break hook" `Quick test_tie_break_hook;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "periodic" `Quick test_periodic;
          Alcotest.test_case "cancel periodic mid-flight" `Quick
            test_periodic_cancel_mid_flight;
          Alcotest.test_case "cancel and re-arm stays bounded" `Quick
            test_rearm_keeps_queue_bounded;
          Alcotest.test_case "done timers release closures" `Quick
            test_done_timers_release_closures;
          Alcotest.test_case "cancel within a run, then purge" `Quick
            test_run_cancel_and_purge;
        ] );
      ( "events",
        [
          Alcotest.test_case "defer before timers" `Quick
            test_defer_runs_before_timers;
          Alcotest.test_case "self-defer cannot starve timers" `Quick
            test_self_defer_no_starvation;
          Alcotest.test_case "exceptions contained" `Quick
            test_exception_in_callback_does_not_kill_loop;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "runs when idle" `Quick
            test_background_task_runs_when_idle;
          Alcotest.test_case "yields to events" `Quick
            test_background_task_yields_to_events;
          Alcotest.test_case "removal" `Quick test_task_remove;
          Alcotest.test_case "removal accounting is exact" `Quick
            test_task_accounting_exact;
          Alcotest.test_case "self-removal accounting" `Quick
            test_task_accounting_self_remove;
          Alcotest.test_case "weights" `Quick test_task_weights;
        ] );
      ( "running",
        [
          Alcotest.test_case "run_until_time" `Quick test_run_until_time;
          Alcotest.test_case "run_until_time without timers" `Quick
            test_run_until_time_no_timers;
          Alcotest.test_case "run_until_idle" `Quick
            test_run_until_idle_leaves_future_timers;
          Alcotest.test_case "stop" `Quick test_stop;
        ] );
      ( "real_mode",
        [
          Alcotest.test_case "wall-clock timer" `Quick test_real_mode_timer;
          Alcotest.test_case "fd readability" `Quick test_real_mode_fd;
          Alcotest.test_case "loops hold no fds" `Quick
            test_real_mode_holds_no_fds;
        ] );
      ( "minheap",
        Alcotest.test_case "basic" `Quick test_minheap
        :: Alcotest.test_case "stamp and peek FIFO" `Quick
             test_minheap_stamp_and_peek
        :: Alcotest.test_case "filter keeps order" `Quick test_minheap_filter
        :: Alcotest.test_case "pop releases values" `Quick
             test_minheap_pop_releases
        :: List.map Seeded.qcheck [ prop_minheap_sorts ] );
      ( "queue",
        List.map Seeded.qcheck
          [ prop_queue_matches_model; prop_queue_matches_model_hooked ] );
    ]
