(* Process-wide metrics + tracing. See telemetry.mli for the model. *)

let enabled = ref true
let set_enabled b = enabled := b
let is_enabled () = !enabled

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

module Histogram = struct
  (* Upper bounds m * 10^e for m in 1..9, e in 0..8 (81 bounds), plus
     one overflow bucket. Log-linear: within a bucket any two values
     differ by at most 2x, so a bucket-bound quantile estimate is at
     most 2x the true quantile. *)
  let bounds =
    Array.init 81 (fun i ->
        let e = i / 9 and m = (i mod 9) + 1 in
        float_of_int m *. (10. ** float_of_int e))

  let bucket_count = Array.length bounds + 1

  type t = {
    h_counts : int array; (* length bucket_count *)
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_max : float;
  }

  let make () =
    { h_counts = Array.make bucket_count 0; h_count = 0; h_sum = 0.; h_max = 0. }

  let bucket_upper_bound i =
    if i < 0 || i >= bucket_count then invalid_arg "bucket_upper_bound"
    else if i = bucket_count - 1 then infinity
    else bounds.(i)

  (* First bucket whose upper bound is >= v. *)
  let bucket_index v =
    let n = Array.length bounds in
    if v <= bounds.(0) then 0
    else if v > bounds.(n - 1) then n
    else begin
      (* invariant: bounds.(lo) < v <= bounds.(hi) *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if bounds.(mid) >= v then hi := mid else lo := mid
      done;
      !hi
    end

  let observe_unguarded t v =
    let i = bucket_index v in
    t.h_counts.(i) <- t.h_counts.(i) + 1;
    t.h_count <- t.h_count + 1;
    t.h_sum <- t.h_sum +. v;
    if v > t.h_max then t.h_max <- v

  let count t = t.h_count
  let sum t = t.h_sum
  let max_observed t = t.h_max
  let counts t = Array.copy t.h_counts

  let quantile t q =
    if t.h_count = 0 then 0.
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int t.h_count))) in
      let rec go i cum =
        if i >= bucket_count then t.h_max
        else
          let cum = cum + t.h_counts.(i) in
          if cum >= rank then
            if i = bucket_count - 1 then t.h_max else bounds.(i)
          else go (i + 1) cum
      in
      go 0 0
    end

  let clear t =
    Array.fill t.h_counts 0 bucket_count 0;
    t.h_count <- 0;
    t.h_sum <- 0.;
    t.h_max <- 0.
end

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Histogram.t

module Trace_defs = struct
  type ctx = { trace_id : int; span_id : int }

  type span = {
    sp_trace : int;
    sp_span : int;
    sp_parent : int option;
    sp_name : string;
    sp_start : float;
    mutable sp_stop : float;
    mutable sp_note : string;
  }
end

type registry = {
  metrics : (string, metric) Hashtbl.t;
  span_ring : Trace_defs.span Telemetry_ring.t;
}

let create_registry ?(span_capacity = 8192) () =
  { metrics = Hashtbl.create 64;
    span_ring = Telemetry_ring.create ~capacity:span_capacity }

let global = create_registry ()

(* Ambient name prefix. Instrumented components register hierarchical
   names like "fea.install.latency_us"; when several router stacks
   share one process (lib/simtest topologies), each boots under its
   own namespace ("r1.") so same-class components land on distinct
   metrics instead of silently sharing counters. *)
let namespace = ref ""
let set_namespace ns = namespace := ns
let current_namespace () = !namespace
let qualify name = if !namespace = "" then name else !namespace ^ name

let with_namespace ns f =
  let saved = !namespace in
  namespace := ns;
  match f () with
  | v -> namespace := saved; v
  | exception e -> namespace := saved; raise e

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create registry name make match_kind =
  match Hashtbl.find_opt registry.metrics name with
  | Some m -> (
      match match_kind m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Telemetry: %s already registered as a %s" name
               (kind_name m)))
  | None ->
      let m, v = make () in
      Hashtbl.replace registry.metrics name m;
      v

let counter ?(registry = global) name =
  get_or_create registry (qualify name)
    (fun () -> let c = { c_value = 0 } in (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let gauge ?(registry = global) name =
  get_or_create registry (qualify name)
    (fun () -> let g = { g_value = 0. } in (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let histogram ?(registry = global) name =
  get_or_create registry (qualify name)
    (fun () -> let h = Histogram.make () in (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let incr c = if !enabled then c.c_value <- c.c_value + 1
let add c n = if !enabled then c.c_value <- c.c_value + n
let counter_value c = c.c_value

let set_gauge g v = if !enabled then g.g_value <- v
let gauge_value g = g.g_value

let observe h v = if !enabled then Histogram.observe_unguarded h v

let time h f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let finish () =
      Histogram.observe_unguarded h ((Unix.gettimeofday () -. t0) *. 1e6)
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let find_metric ?(registry = global) name =
  Hashtbl.find_opt registry.metrics name

let list_metrics ?(registry = global) () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry.metrics []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let zero_metric = function
  | Counter c -> c.c_value <- 0
  | Gauge g -> g.g_value <- 0.
  | Histogram h -> Histogram.clear h

let reset ?(registry = global) () =
  Hashtbl.iter (fun _ m -> zero_metric m) registry.metrics;
  Telemetry_ring.clear registry.span_ring

let reset_prefix ?(registry = global) prefix =
  let prefix = qualify prefix in
  Hashtbl.iter
    (fun name m ->
      if String.length name >= String.length prefix
         && String.sub name 0 (String.length prefix) = prefix
      then zero_metric m)
    registry.metrics

module Trace = struct
  include Trace_defs

  (* Ids are process-unique; trace ids and span ids draw from separate
     sequences so a wire context is unambiguous even across traces. *)
  let next_trace = ref 0
  let next_span = ref 0
  let fresh r = Stdlib.incr r; !r

  let ambient : ctx option ref = ref None
  let current () = !ambient

  let with_ctx ctx f =
    let saved = !ambient in
    ambient := ctx;
    match f () with
    | v -> ambient := saved; v
    | exception e -> ambient := saved; raise e

  let start ?registry:_ ?parent ~name ~now () =
    let parent = match parent with Some _ as p -> p | None -> !ambient in
    let trace_id, parent_span =
      match parent with
      | Some c -> (c.trace_id, Some c.span_id)
      | None -> (fresh next_trace, None)
    in
    { sp_trace = trace_id;
      sp_span = fresh next_span;
      sp_parent = parent_span;
      sp_name = name;
      sp_start = now;
      sp_stop = now;
      sp_note = "" }

  let finish ?(registry = global) ?note ~now span =
    span.sp_stop <- now;
    (match note with Some n -> span.sp_note <- n | None -> ());
    if !enabled then Telemetry_ring.push registry.span_ring span

  let ctx span = { trace_id = span.sp_trace; span_id = span.sp_span }

  let span_sync ?(registry = global) ?note ~name ~clock f =
    if not !enabled then f ()
    else begin
      let span = start ~name ~now:(clock ()) () in
      let fin () = finish ~registry ?note ~now:(clock ()) span in
      match with_ctx (Some (ctx span)) f with
      | v -> fin (); v
      | exception e -> fin (); raise e
    end

  let spans ?(registry = global) () = Telemetry_ring.to_list registry.span_ring
  let spans_recorded ?(registry = global) () =
    Telemetry_ring.total_pushed registry.span_ring

  let ctx_to_string c = Printf.sprintf "%d.%d" c.trace_id c.span_id

  let ctx_of_string s =
    match String.index_opt s '.' with
    | None -> None
    | Some i -> (
        let t = String.sub s 0 i
        and sp = String.sub s (i + 1) (String.length s - i - 1) in
        match (int_of_string_opt t, int_of_string_opt sp) with
        | Some trace_id, Some span_id -> Some { trace_id; span_id }
        | _ -> None)

  let trace_atom_name = "_xorp_trace"
end

(* ---- export ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let metric_json m =
  match m with
  | Counter c -> Printf.sprintf {|{"type":"counter","value":%d}|} c.c_value
  | Gauge g ->
      Printf.sprintf {|{"type":"gauge","value":%s}|} (json_float g.g_value)
  | Histogram h ->
      Printf.sprintf
        {|{"type":"histogram","count":%d,"sum":%s,"max":%s,"p50":%s,"p90":%s,"p99":%s}|}
        (Histogram.count h)
        (json_float (Histogram.sum h))
        (json_float (Histogram.max_observed h))
        (json_float (Histogram.quantile h 0.5))
        (json_float (Histogram.quantile h 0.9))
        (json_float (Histogram.quantile h 0.99))

let span_json (s : Trace.span) =
  Printf.sprintf
    {|{"trace":%d,"span":%d,"parent":%s,"name":"%s","start":%s,"stop":%s,"note":"%s"}|}
    s.Trace.sp_trace s.Trace.sp_span
    (match s.Trace.sp_parent with Some p -> string_of_int p | None -> "null")
    (json_escape s.Trace.sp_name)
    (json_float s.Trace.sp_start)
    (json_float s.Trace.sp_stop)
    (json_escape s.Trace.sp_note)

let snapshot_json ?(registry = global) () =
  let metrics =
    list_metrics ~registry ()
    |> List.map (fun (name, m) ->
           Printf.sprintf {|"%s":%s|} (json_escape name) (metric_json m))
    |> String.concat ","
  in
  let spans =
    Telemetry_ring.to_list registry.span_ring
    |> List.map span_json |> String.concat ","
  in
  Printf.sprintf {|{"metrics":{%s},"spans":[%s]}|} metrics spans

let render_table ?(registry = global) () =
  let b = Buffer.create 1024 in
  let metrics = list_metrics ~registry () in
  let counters =
    List.filter_map
      (function n, Counter c -> Some (n, c.c_value) | _ -> None)
      metrics
  and gauges =
    List.filter_map
      (function n, Gauge g -> Some (n, g.g_value) | _ -> None)
      metrics
  and hists =
    List.filter_map
      (function n, Histogram h -> Some (n, h) | _ -> None)
      metrics
    |> List.sort (fun (_, a) (_, b) ->
           compare (Histogram.count b) (Histogram.count a))
  in
  if counters <> [] then begin
    Buffer.add_string b "Counters:\n";
    List.iter
      (fun (n, v) -> Buffer.add_string b (Printf.sprintf "  %-40s %12d\n" n v))
      counters
  end;
  if gauges <> [] then begin
    Buffer.add_string b "Gauges:\n";
    List.iter
      (fun (n, v) ->
        Buffer.add_string b (Printf.sprintf "  %-40s %12s\n" n (json_float v)))
      gauges
  end;
  if hists <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "Latency (us):\n  %-40s %8s %8s %8s %8s %10s\n" "stage"
         "count" "p50" "p90" "p99" "max");
    List.iter
      (fun (n, h) ->
        Buffer.add_string b
          (Printf.sprintf "  %-40s %8d %8.0f %8.0f %8.0f %10.0f\n" n
             (Histogram.count h)
             (Histogram.quantile h 0.5)
             (Histogram.quantile h 0.9)
             (Histogram.quantile h 0.99)
             (Histogram.max_observed h)))
      hists
  end;
  Buffer.add_string b
    (Printf.sprintf "Spans: %d live, %d recorded\n"
       (Telemetry_ring.length registry.span_ring)
       (Telemetry_ring.total_pushed registry.span_ring));
  Buffer.contents b
