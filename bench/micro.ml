(* Micro-benchmarks (Bechamel): the hot primitives under everything —
   XRL marshaling, Patricia-tree operations, policy evaluation, BGP
   message encoding. These quantify the constants behind the macro
   figures (e.g. why the Figure 9 gap between intra and TCP closes as
   argument counts grow: marshaling cost grows linearly). *)

open Bechamel
open Toolkit

let sample_xrl nargs =
  Xrl.make ~protocol:"stcp" ~target:"127.0.0.1:1" ~interface:"bench"
    ~method_name:"noop"
    (List.init nargs (fun i -> Xrl_atom.u32 (Printf.sprintf "arg%d" i) i))

let test_encode nargs =
  let xrl = sample_xrl nargs in
  Test.make
    ~name:(Printf.sprintf "xrl_wire.encode/%d-args" nargs)
    (Staged.stage (fun () ->
         ignore (Xrl_wire.encode (Xrl_wire.Request { seq = 1; xrl }))))

let test_decode nargs =
  let wire = Xrl_wire.encode (Xrl_wire.Request { seq = 1; xrl = sample_xrl nargs }) in
  Test.make
    ~name:(Printf.sprintf "xrl_wire.decode/%d-args" nargs)
    (Staged.stage (fun () -> ignore (Xrl_wire.decode wire)))

let test_ptree_ops =
  let feed = Feed.generate 20000 in
  let trie = Ptree.create () in
  Array.iter (fun e -> ignore (Ptree.insert trie e.Feed.net e.Feed.nexthop)) feed;
  let rng = Rng.create 5 in
  [ Test.make ~name:"ptree.longest_match/20k"
      (Staged.stage (fun () ->
           let i = Rng.int rng 20000 in
           ignore
             (Ptree.longest_match trie (Ipv4net.network feed.(i).Feed.net))));
    Test.make ~name:"ptree.insert+remove/20k"
      (Staged.stage (fun () ->
           let n = Ipv4net.make (Ipv4.of_int (Rng.int rng 0x3FFFFFFF)) 24 in
           ignore (Ptree.insert trie n Ipv4.zero);
           ignore (Ptree.remove trie n))) ]

let test_policy =
  let prog =
    Result.get_ok
      (Policy.compile
         "load network\npush.net 10.0.0.0/8\nwithin\njfalse k\npush.u32 200\nstore localpref\naccept\nlabel k\nreject")
  in
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl "network" (Policy.Net (Ipv4net.of_string_exn "10.1.0.0/16"));
  Hashtbl.replace tbl "localpref" (Policy.Int 100);
  let ctx = Policy.ctx_of_table tbl () in
  Test.make ~name:"policy.eval/8-instr"
    (Staged.stage (fun () -> ignore (Policy.eval prog ctx)))

let test_bgp_encode =
  let attrs =
    { (Bgp_types.default_attrs ~nexthop:(Ipv4.of_octets 10 0 0 1)) with
      Bgp_types.aspath = [ Aspath.Seq [ 65000; 65100; 3356 ] ] }
  in
  let nets =
    List.init 50 (fun i -> Ipv4net.make (Ipv4.of_octets 10 0 i 0) 24)
  in
  let msg = Bgp_packet.Update { withdrawn = []; attrs = Some attrs; nlri = nets } in
  let wire = Bgp_packet.encode msg in
  [ Test.make ~name:"bgp_packet.encode/50-nlri"
      (Staged.stage (fun () -> ignore (Bgp_packet.encode msg)));
    Test.make ~name:"bgp_packet.decode/50-nlri"
      (Staged.stage (fun () -> ignore (Bgp_packet.decode wire))) ]

(* Cost of arming (and, on the fast path, cancelling) the per-call
   deadline timer: a full intra-process call with and without
   ?deadline. Each iteration drains the loop so cancelled timers do not
   pile up in the heap and skew later iterations. *)
let test_deadline_overhead =
  let loop = Eventloop.create () in
  let finder = Finder.create () in
  let target = Xrl_router.create finder loop ~class_name:"bench-adder" () in
  Xrl_router.add_handler target ~interface:"bench" ~method_name:"noop"
    (fun _ reply -> reply Xrl_error.Ok_xrl []);
  let caller = Xrl_router.create finder loop ~class_name:"bench-caller" () in
  let xrl =
    Xrl.make ~target:"bench-adder" ~interface:"bench" ~method_name:"noop" []
  in
  let sink _ _ = () in
  [ Test.make ~name:"xrl.intra_call/no-deadline"
      (Staged.stage (fun () ->
           Xrl_router.send caller xrl sink;
           Eventloop.run loop));
    Test.make ~name:"xrl.intra_call/deadline"
      (Staged.stage (fun () ->
           Xrl_router.send ~deadline:5.0 caller xrl sink;
           Eventloop.run loop)) ]

(* The timer queue's per-event constant, on a simulated clock. Each
   run of the first two schedules 256 timers and fires them all: one
   deadline shared by all 256 (a link's packet burst), or 256 distinct
   deadlines. The third fires one timer on a loop that has seen 10,000
   timers cancelled (the debris of a re-armed hold timer); a pending
   timer due before them keeps sweeps from draining them. *)
let test_timer_queue =
  let noop () = () in
  let burst name deadline =
    let loop = Eventloop.create () in
    Test.make ~name
      (Staged.stage (fun () ->
           for i = 1 to 256 do
             ignore (Eventloop.after loop (deadline i) noop)
           done;
           Eventloop.run loop))
  in
  let after_cancels =
    let loop = Eventloop.create () in
    ignore (Eventloop.after loop 1e8 noop);
    for _ = 1 to 10_000 do
      Eventloop.cancel (Eventloop.after loop 1e9 noop)
    done;
    Test.make ~name:"eventloop.fire/10k-cancelled"
      (Staged.stage (fun () ->
           ignore (Eventloop.after loop 0.0 noop);
           ignore (Eventloop.run_once loop)))
  in
  [ burst "eventloop.256-timers/same-deadline" (fun _ -> 1.0);
    burst "eventloop.256-timers/distinct" float_of_int;
    after_cancels ]

(* One [`Real]-mode iteration with no descriptor registered: a deferred
   no-op keeps the loop from blocking, so this is the loop's own
   per-iteration constant. A syscall added to every iteration (a
   [select] on an internal descriptor, say) shows up here at once. *)
let test_real_iteration =
  let loop = Eventloop.create ~mode:`Real () in
  let noop () = () in
  Test.make ~name:"eventloop.run_once/real-no-fds"
    (Staged.stage (fun () ->
         Eventloop.defer loop noop;
         ignore (Eventloop.run_once loop)))

let all_tests =
  Test.make_grouped ~name:"micro"
    ([ test_encode 0; test_encode 10; test_encode 25;
       test_decode 0; test_decode 10; test_decode 25 ]
     @ test_ptree_ops @ [ test_policy ] @ test_bgp_encode
     @ test_deadline_overhead @ test_timer_queue @ [ test_real_iteration ])

let run () =
  Bench_util.header "Micro-benchmarks (Bechamel)";
  (* Earlier experiments may leave a bloated heap (the memory bench
     loads 146k routes); compact so GC noise does not inflate the
     nanosecond numbers. *)
  Gc.compact ();
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  Printf.printf "\n%-34s %14s\n" "operation" "ns/op";
  List.iter
    (fun (name, ols_result) ->
       match Analyze.OLS.estimates ols_result with
       | Some (est :: _) -> Printf.printf "%-34s %14.1f\n" name est
       | _ -> Printf.printf "%-34s %14s\n" name "n/a")
    (List.sort compare rows)
