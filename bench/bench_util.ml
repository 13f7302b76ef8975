(* Shared helpers for the benchmark harness. *)

let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let pf fmt = Printf.printf fmt

let header title =
  pf "\n== %s ==\n%!" title

let paper_note lines =
  List.iter (fun l -> pf "   paper: %s\n" l) lines;
  pf "%!"

type series_stats = { avg : float; sd : float; min_v : float; max_v : float }

let stats values =
  match values with
  | [] -> { avg = nan; sd = nan; min_v = nan; max_v = nan }
  | _ ->
    let n = float_of_int (List.length values) in
    let sum = List.fold_left ( +. ) 0.0 values in
    let avg = sum /. n in
    let var =
      List.fold_left (fun acc v -> acc +. ((v -. avg) ** 2.0)) 0.0 values /. n
    in
    { avg; sd = sqrt var;
      min_v = List.fold_left min infinity values;
      max_v = List.fold_left max neg_infinity values }

let run_real_until loop pred ~timeout_s what =
  let t0 = Unix.gettimeofday () in
  Eventloop.run
    ~until:(fun () -> pred () || Unix.gettimeofday () -. t0 > timeout_s)
    loop;
  if not (pred ()) then
    failwith (Printf.sprintf "bench: timed out waiting for %s" what)

(* A standalone event-driven BGP router (no RIB), as used by several
   experiments. *)
let standalone_bgp ~loop ~netsim ~local_as ~bgp_id () =
  let finder = Finder.create () in
  Bgp_process.create ~nexthop_mode:`Assume_resolvable
    finder loop ~netsim ~local_as ~bgp_id ()

let default_peer = Bgp_process.default_peer_config

(* A raw measurement peer: speaks just enough BGP to receive routes and
   timestamp their arrival (the paper's observation point in Figure
   13). *)
module Probe = struct
  type t = {
    fsm : Peer_fsm.t;
    arrivals : (Ipv4net.t * float) Queue.t;
    loop : Eventloop.t;
  }

  let create ~loop ~netsim ~local_addr ~local_as ~peer_addr:_ ~peer_as
      ~bgp_port () =
    let arrivals = Queue.create () in
    let fsm =
      lazy
        (Peer_fsm.create loop
           { Peer_fsm.local_as; bgp_id = local_addr; peer_as;
             hold_time = 300.0 }
           {
             Peer_fsm.on_established = (fun () -> ());
             on_update =
               (fun msg ->
                  match msg with
                  | Bgp_packet.Update { nlri; _ } ->
                    let now = Eventloop.now loop in
                    List.iter (fun n -> Queue.push (n, now) arrivals) nlri
                  | _ -> ());
             on_down = (fun _ -> ());
           })
    in
    let fsm = Lazy.force fsm in
    ignore
      (Netsim.Stream.listen netsim ~addr:local_addr ~port:bgp_port (fun ep ->
           Peer_fsm.start_passive fsm;
           Peer_fsm.attach_stream fsm ep));
    { fsm; arrivals; loop }

  let established t = Peer_fsm.state t.fsm = Peer_fsm.Established
  let arrivals t = List.of_seq (Queue.to_seq t.arrivals)
end

(* An active test peer that dials a router under test and injects
   routes — the "peering" side of Figures 10–12. *)
module Injector = struct
  type t = {
    fsm : Peer_fsm.t;
    loop : Eventloop.t;
    netsim : Netsim.t;
    local_addr : Ipv4.t;
    peer_addr : Ipv4.t;
    bgp_port : int;
  }

  let create ~loop ~netsim ~local_addr ~local_as ~peer_addr ~peer_as
      ?(bgp_port = 179) () =
    let fsm =
      Peer_fsm.create loop
        { Peer_fsm.local_as; bgp_id = local_addr; peer_as; hold_time = 300.0 }
        { Peer_fsm.on_established = (fun () -> ());
          on_update = (fun _ -> ());
          on_down = (fun _ -> ()) }
    in
    { fsm; loop; netsim; local_addr; peer_addr; bgp_port }

  let connect t =
    Peer_fsm.start_active t.fsm;
    Netsim.Stream.connect t.netsim ~src:t.local_addr ~dst:t.peer_addr
      ~port:t.bgp_port (fun ep ->
          match ep with
          | None -> failwith "Injector: connection refused"
          | Some ep -> Peer_fsm.attach_stream t.fsm ep)

  let established t = Peer_fsm.state t.fsm = Peer_fsm.Established

  let announce t ?(aspath = [ Aspath.Seq [ 65100 ] ]) ?med ~nexthop nets =
    let attrs =
      { (Bgp_types.default_attrs ~nexthop) with
        Bgp_types.aspath; med }
    in
    let rec chunks = function
      | [] -> ()
      | nets ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | x :: rest -> take (n - 1) (x :: acc) rest
          | [] -> (List.rev acc, [])
        in
        let head, rest = take 700 [] nets in
        ignore
          (Peer_fsm.send_update t.fsm
             (Bgp_packet.Update
                { withdrawn = []; attrs = Some attrs; nlri = head }));
        chunks rest
    in
    chunks nets

  let withdraw t nets =
    ignore
      (Peer_fsm.send_update t.fsm
         (Bgp_packet.Update { withdrawn = nets; attrs = None; nlri = [] }))
end
