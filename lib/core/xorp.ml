let version = "1.0.0"

type stack = {
  finder : Finder.t;
  loop : Eventloop.t;
  net : Netsim.t;
  fea : Fea.t;
  rib : Rib.t;
  mutable bgp : Bgp_process.t option;
  mutable rip : Rip_process.t option;
}

let make_stack ?(interfaces = []) ~loop ~net () =
  let finder = Finder.create () in
  let fea = Fea.create ~interfaces ~netsim:net finder loop () in
  let rib = Rib.create finder loop () in
  List.iter
    (fun (_, a) ->
       match
         Rib.add_route rib ~protocol:"connected" ~net:(Ipv4net.make a 24)
           ~nexthop:Ipv4.zero ()
       with
       | Ok () | Error _ -> ())
    interfaces;
  { finder; loop; net; fea; rib; bgp = None; rip = None }

let add_bgp stack ~local_as ~bgp_id ?(peers = []) () =
  let bgp =
    Bgp_process.create stack.finder stack.loop ~netsim:stack.net ~local_as
      ~bgp_id ()
  in
  List.iter (Bgp_process.add_peer bgp) peers;
  Bgp_process.start bgp;
  stack.bgp <- Some bgp;
  bgp

let add_rip stack config =
  let rip =
    Rip_process.create stack.finder stack.loop config
  in
  Rip_process.start rip;
  stack.rip <- Some rip;
  rip

let shutdown_stack stack =
  Option.iter Rip_process.shutdown stack.rip;
  Option.iter Bgp_process.shutdown stack.bgp;
  Rib.shutdown stack.rib;
  Fea.shutdown stack.fea

let run_stacks loop ~seconds =
  Eventloop.run_until_time loop (Eventloop.now loop +. seconds)
