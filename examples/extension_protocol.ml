(* Extensibility (paper §8.3, "Adding a New Routing Protocol").

   A toy routing protocol implemented entirely OUTSIDE the core
   libraries, talking to the router purely through public XRL
   interfaces — the paper's extensibility claim in action. The protocol
   ("gossip") floods host routes it invents; it registers itself with
   the Finder, originates routes with rib/1.0 XRLs, tracks how its
   addresses are routed via register_interest, and reacts to
   rib_client/1.0 invalidation callbacks. Nothing in xorp_rib or
   xorp_fea knows it exists. Exits 1 if any gossip XRL fails or the
   FIB lacks gossip's two routes.

     dune exec examples/extension_protocol.exe *)

let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

(* The entire "protocol". Note: only Xrl_router / Xrl / Xrl_atom and
   the published rib/1.0 + rib_client/1.0 interfaces are used. *)
module Gossip = struct
  type t = {
    router : Xrl_router.t;
    loop : Eventloop.t;
    mutable invalidations : int;
    mutable failures : int;
  }

  let rib_xrl method_name args =
    Xrl.make ~target:"rib" ~interface:"rib" ~method_name args

  let create finder loop =
    let router = Xrl_router.create finder loop ~class_name:"gossip" () in
    let t = { router; loop; invalidations = 0; failures = 0 } in
    (* The RIB calls this back when a cached routing answer becomes
       stale (§5.2.1). *)
    Xrl_router.add_handler router ~interface:"rib_client"
      ~method_name:"route_info_invalid" (fun args reply ->
          let valid = Xrl_atom.get_ipv4net args "valid" in
          t.invalidations <- t.invalidations + 1;
          Printf.printf "  [gossip] cache invalidated for %s; re-querying\n"
            (Ipv4net.to_string valid);
          reply Xrl_error.Ok_xrl []);
    t

  let failed t what err =
    t.failures <- t.failures + 1;
    Printf.printf "  [gossip] %s failed: %s\n" what (Xrl_error.to_string err)

  (* One route, as a one-route packed run in the urgent lane. *)
  let originate t prefix nexthop =
    Xrl_router.send t.router
      (rib_xrl "add_routes4"
         [ Xrl_atom.boolean "urgent" true;
           Xrl_atom.binary "routes"
             (Route_pack.pack_adds
                [ { Route_pack.net = prefix; nexthop; ifname = "";
                    (* The RIB knows no "gossip" protocol; the paper's
                       ad-hoc team needed exactly one trivial interface
                       change. We ride the static origin table instead
                       of changing the RIB. *)
                    protocol = "static"; metric = 7 } ]) ])
      (fun err _ -> if not (Xrl_error.is_ok err) then failed t "originate" err)

  let watch t a =
    Xrl_router.send t.router
      (rib_xrl "register_interest"
         [ Xrl_atom.txt "client" (Xrl_router.instance_name t.router);
           Xrl_atom.ipv4 "addr" a ])
      (fun err args ->
         if Xrl_error.is_ok err then
           Printf.printf "  [gossip] %s resolves=%b valid-for=%s\n"
             (Ipv4.to_string a)
             (Xrl_atom.get_bool args "resolves")
             (Ipv4net.to_string (Xrl_atom.get_ipv4net args "valid"))
         else failed t "register_interest" err)
end

let () =
  Printf.printf
    "a third-party protocol extends the router through public XRLs only\n\n";
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let stack =
    Xorp.make_stack ~interfaces:[ ("eth0", addr "10.0.0.1") ] ~loop
      ~net:netsim ()
  in
  let gossip = Gossip.create stack.Xorp.finder loop in

  Printf.printf "gossip originates two routes over rib/1.0:\n";
  Gossip.originate gossip (net "198.51.100.0/24") (addr "10.0.0.77");
  Gossip.originate gossip (net "198.51.0.0/16") (addr "10.0.0.78");
  Eventloop.run_until_idle loop;

  Printf.printf "\ngossip registers interest in an address it cares about:\n";
  Gossip.watch gossip (addr "198.51.100.42");
  Eventloop.run_until_idle loop;

  Printf.printf
    "\nanother protocol (static) injects a more-specific route inside the\n\
     watched range; the RIB notifies gossip (lifetime of cached answers):\n";
  Result.get_ok
    (Rib.add_route stack.Xorp.rib ~protocol:"static"
       ~net:(net "198.51.100.128/25") ~nexthop:(addr "10.0.0.99") ());
  Eventloop.run_until_idle loop;

  Printf.printf "\ngossip re-queries and gets the narrowed answer:\n";
  Gossip.watch gossip (addr "198.51.100.42");
  Eventloop.run_until_idle loop;

  Printf.printf "\nrouter's FIB now (all installed via the normal pipeline):\n";
  let fib = Fib.entries (Fea.fib stack.Xorp.fea) in
  List.iter
    (fun (e : Fib.entry) ->
       Printf.printf "  %-20s via %s\n"
         (Ipv4net.to_string e.Fib.net)
         (Ipv4.to_string e.nexthop))
    fib;
  Printf.printf "\ninvalidation callbacks received: %d\n" gossip.Gossip.invalidations;
  Xorp.shutdown_stack stack;
  let missing =
    List.filter
      (fun (n, nh) ->
         not
           (List.exists
              (fun (e : Fib.entry) ->
                 Ipv4net.equal e.Fib.net (net n)
                 && Ipv4.equal e.nexthop (addr nh))
              fib))
      [ ("198.51.100.0/24", "10.0.0.77"); ("198.51.0.0/16", "10.0.0.78") ]
  in
  List.iter
    (fun (n, nh) -> Printf.printf "missing from the FIB: %s via %s\n" n nh)
    missing;
  if gossip.Gossip.failures > 0 || missing <> [] then exit 1
