(* Route redistribution through policy filters (paper §3 and §8.3).

   Two routers booted from configuration files. Router A learns routes
   over RIP, and its RIB redistributes a policy-filtered subset into
   BGP's world... here we show the RIB redist stage directly: static
   and RIP routes flow into RIP advertisements via the stack-language
   filter, with a metric override, while a denied block stays private.

     dune exec examples/policy_routing.exe

   Exits 1 if any lookup at B names another protocol than expected. *)

let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn

let config_a = {|
interfaces {
    interface eth0 { address: 10.0.0.1 }
}
protocols {
    static {
        route 172.16.0.0/12 { nexthop: 10.0.0.254 }
        route 198.18.0.0/15 { nexthop: 10.0.0.254 }
        route 192.168.0.0/16 { nexthop: 10.0.0.254 }
    }
    rip {
        interface 10.0.0.1 { neighbor: 10.0.0.2 }
        redistribute: "load protocol; push.str static; eq; jfalse done; load network; push.net 192.168.0.0/16; within; jfalse export; reject; label export; push.u32 5; store metric; accept; label done; reject"
    }
}
|}

let config_b = {|
interfaces {
    interface eth0 { address: 10.0.0.2 }
}
protocols {
    rip {
        interface 10.0.0.2 { neighbor: 10.0.0.1 }
    }
}
|}

let () =
  let loop = Eventloop.create () in
  let netsim = Netsim.create loop in
  let boot name config =
    match Rtrmgr.boot ~loop ~netsim ~config () with
    | Ok r -> r
    | Error problems ->
      Printf.eprintf "%s rejected:\n" name;
      List.iter (fun p -> Printf.eprintf "  %s\n" p) problems;
      exit 1
  in
  let ra = boot "router-a" config_a in
  let rb = boot "router-b" config_b in
  Printf.printf
    "router A redistributes its static routes into RIP through a policy:\n";
  Printf.printf "  - only static routes (protocol test)\n";
  Printf.printf "  - 192.168.0.0/16 is kept private (reject)\n";
  Printf.printf "  - exported routes get metric 5\n\n";
  Eventloop.run_until_time loop 40.0;

  Printf.printf "router A's RIB:\n%s\n" (Rtrmgr.show_routes ra);
  Printf.printf "router B learned over RIP:\n%s\n" (Rtrmgr.show_rip rb);

  let failed = ref false in
  let check a expected why =
    let got =
      match Rib.lookup_best (Rtrmgr.rib rb) (addr a) with
      | Some r -> r.Rib_route.protocol
      | None -> "unroutable"
    in
    if got <> expected then failed := true;
    Printf.printf "  %-14s at B: %-12s (expected %s%s)\n" a got expected why
  in
  check "172.16.5.5" "rip" "";
  check "198.18.5.5" "rip" "";
  check "192.168.1.1" "unroutable" " (kept private)";

  (* The deleted static route is retracted from RIP as well. *)
  Printf.printf "\nwithdrawing 198.18.0.0/15 at A...\n";
  Result.get_ok
    (Rib.delete_route (Rtrmgr.rib ra) ~protocol:"static" ~net:(net "198.18.0.0/15"));
  Eventloop.run_until_time loop (Eventloop.now loop +. 10.0);
  check "198.18.5.5" "unroutable" " (withdrawn)";
  Rtrmgr.shutdown ra;
  Rtrmgr.shutdown rb;
  if !failed then begin
    prerr_endline "policy_routing: a lookup at B did not match its expectation";
    exit 1
  end
