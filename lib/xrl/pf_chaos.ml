let src = Logs.Src.create "xorp.pf_chaos" ~doc:"XRL fault-injection wrapper"

module Log = (val Logs.src_log src : Logs.LOG)

let c_drops = Telemetry.counter "xrl.chaos.drops"
let c_failures = Telemetry.counter "xrl.chaos.failures"
let c_dups = Telemetry.counter "xrl.chaos.dups"
let c_delayed = Telemetry.counter "xrl.chaos.delayed"
let count c = if Telemetry.is_enabled () then Telemetry.incr c

type config = {
  mutable drop_prob : float;
  mutable fail_prob : float;
  mutable dup_prob : float;
  mutable delay : float;
  mutable delay_jitter : float;
}

let config ?(drop_prob = 0.) ?(fail_prob = 0.) ?(dup_prob = 0.)
    ?(delay = 0.) ?(delay_jitter = 0.) () =
  { drop_prob; fail_prob; dup_prob; delay; delay_jitter }

let wrap ?rng ~seed ~config:cfg (inner : Pf.family) : Pf.family =
  let wrap_sender loop address =
    let sender = inner.make_sender loop address in
    (* By default a per-destination stream, decorrelated across
       addresses but fully determined by [seed]: a failing chaos test
       replays exactly. With [?rng], every sender draws from that one
       shared generator instead — the simulation harness injects its
       master-seeded RNG here so the entire fault schedule is one
       stream derived from a single integer. *)
    let rng =
      match rng with
      | Some rng -> rng
      | None -> Rng.create (seed lxor Hashtbl.hash address)
    in
    (* Deliver a reply through the configured mischief: optional fixed
       + jittered delay, optional duplicate delivery one turn later
       (exercising the caller's settle-once guard). *)
    let deliver cb err args =
      let fire () =
        cb err args;
        if cfg.dup_prob > 0. && Rng.float rng < cfg.dup_prob then begin
          count c_dups;
          Eventloop.defer loop (fun () -> cb err args)
        end
      in
      let d =
        cfg.delay
        +. (if cfg.delay_jitter > 0. then cfg.delay_jitter *. Rng.float rng
            else 0.)
      in
      if d > 0. then begin
        count c_delayed;
        ignore (Eventloop.after loop d fire)
      end
      else fire ()
    in
    let send_req xrl cb =
      if cfg.drop_prob > 0. && Rng.float rng < cfg.drop_prob then begin
        (* Black hole: neither the request nor any reply ever surfaces,
           as when the datagram — or the peer — vanishes mid-call. Only
           a caller-side timeout can recover. *)
        count c_drops;
        Log.debug (fun m -> m "dropping %s" (Xrl.method_id xrl))
      end
      else if cfg.fail_prob > 0. && Rng.float rng < cfg.fail_prob then begin
        count c_failures;
        Eventloop.defer loop (fun () ->
            cb (Xrl_error.Send_failed "chaos: injected failure") [])
      end
      else sender.Pf.send_req xrl (deliver cb)
    in
    { Pf.send_req;
      close_sender = sender.Pf.close_sender;
      family_of_sender = sender.Pf.family_of_sender }
  in
  { family_name = inner.family_name;
    make_listener = inner.make_listener;
    make_sender = wrap_sender }
