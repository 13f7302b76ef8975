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

  type note =
    | Net of Ipv4net.t
    | Routes of int
    | Update of Ipv4.t * int * int
    | Text of string

  type span = {
    sp_trace : int;
    sp_span : int;
    sp_parent : int option;
    sp_name : string;
    sp_start : float;
    sp_stop : float;
    sp_note : string;
  }
end

(* Finished spans and profile-point records, struct-of-arrays: slot
   [i] keeps its ids and note payload at [ints.(i * int_stride + k)],
   its name and text note at [strs.(i * 2 + k)] and its start and stop
   times at [times.(i * 2 + k)]. Recording writes immediates (and
   strings the caller already holds) into these arrays, so it allocates
   nothing and hands the GC nothing to promote. A note is turned into
   text only by the readers below. The slots start at 64 on the first
   push and double up to [cap]; until then nothing wraps, so the live
   entries are [0, len) and [head = len]. A registry keeps two stores,
   one for spans and one for point records, so neither evicts the
   other. *)
module Span_store = struct
  (* int slot layout. The note kind is 0 for no note, 1 for [Net]
     (a: network, b: length), 2 for [Routes] (a: count), 3 for
     [Update] (a: peer, b: NLRI count, c: withdrawn count) and 4 for
     [Text], whose string sits in the slot's second string. A point
     record keeps its verb in the kind (0 add, 1 delete), its prefix
     as [Net] does, its point in the name and its time as the start;
     its ids and stop time go unused. *)
  let f_trace = 0
  let f_span = 1
  let f_parent = 2 (* 0 for a root span *)
  let f_kind = 3
  let f_a = 4
  let f_b = 5
  let f_c = 6
  let int_stride = 7

  type t = {
    cap : int;
    mutable size : int; (* slots allocated: 0, then 64 doubling to cap *)
    mutable head : int; (* next slot written *)
    mutable len : int; (* live slots *)
    mutable pushed : int;
    mutable ints : int array;
    mutable strs : string array;
    mutable times : Float.Array.t;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Telemetry: span capacity < 1";
    { cap = capacity; size = 0; head = 0; len = 0; pushed = 0; ints = [||];
      strs = [||]; times = Float.Array.create 0 }

  let grow t =
    let size = min t.cap (max 64 (2 * t.size)) in
    let ints = Array.make (size * int_stride) 0
    and strs = Array.make (size * 2) ""
    and times = Float.Array.make (size * 2) 0. in
    Array.blit t.ints 0 ints 0 (t.len * int_stride);
    Array.blit t.strs 0 strs 0 (t.len * 2);
    Float.Array.blit t.times 0 times 0 (t.len * 2);
    t.ints <- ints;
    t.strs <- strs;
    t.times <- times;
    t.size <- size

  (* The slot the next record goes in: a fresh one while the store is
     not full, else the oldest, which it overwrites. *)
  let claim t =
    if t.len = t.size && t.size < t.cap then grow t;
    let i = t.head in
    t.head <- (if i + 1 = t.cap then 0 else i + 1);
    if t.len < t.cap then t.len <- t.len + 1;
    t.pushed <- t.pushed + 1;
    i

  let push t ~trace ~span ~parent ~name ~start ~stop
      (note : Trace_defs.note option) =
    let i = claim t in
    let o = i * int_stride in
    let ints = t.ints in
    ints.(o + f_trace) <- trace;
    ints.(o + f_span) <- span;
    ints.(o + f_parent) <- parent;
    t.strs.(2 * i) <- name;
    let kind =
      match note with
      | None -> 0
      | Some (Net n) ->
        ints.(o + f_a) <- Ipv4.to_int (Ipv4net.network n);
        ints.(o + f_b) <- Ipv4net.prefix_len n;
        1
      | Some (Routes n) ->
        ints.(o + f_a) <- n;
        2
      | Some (Update (peer, nlri, withdrawn)) ->
        ints.(o + f_a) <- Ipv4.to_int peer;
        ints.(o + f_b) <- nlri;
        ints.(o + f_c) <- withdrawn;
        3
      | Some (Text _) -> 4
    in
    ints.(o + f_kind) <- kind;
    t.strs.((2 * i) + 1) <-
      (match note with Some (Text s) -> s | _ -> "");
    Float.Array.set t.times (2 * i) start;
    Float.Array.set t.times (2 * i + 1) stop

  let clear t =
    t.head <- 0;
    t.len <- 0

  (* A slot's note as text: the one place notes are formatted. *)
  let note_text t i =
    let o = i * int_stride in
    let a = t.ints.(o + f_a) in
    match t.ints.(o + f_kind) with
    | 1 -> Ipv4net.to_string (Ipv4net.make (Ipv4.of_int a) t.ints.(o + f_b))
    | 2 -> string_of_int a ^ " routes"
    | 3 ->
      Printf.sprintf "%s +%d -%d" (Ipv4.to_string (Ipv4.of_int a))
        t.ints.(o + f_b) t.ints.(o + f_c)
    | 4 -> t.strs.((2 * i) + 1)
    | _ -> ""

  let span t i : Trace_defs.span =
    let o = i * int_stride in
    let parent = t.ints.(o + f_parent) in
    { sp_trace = t.ints.(o + f_trace);
      sp_span = t.ints.(o + f_span);
      sp_parent = (if parent = 0 then None else Some parent);
      sp_name = t.strs.(2 * i);
      sp_start = Float.Array.get t.times (2 * i);
      sp_stop = Float.Array.get t.times ((2 * i) + 1);
      sp_note = note_text t i }

  (* The live slots, oldest first, each read by [read]. *)
  let map t read =
    let first = (t.head - t.len + t.size) mod max 1 t.size in
    List.init t.len (fun k -> read t ((first + k) mod t.size))
end

(* A profile point: a name, a switch and a lifetime count, recording
   into its registry's point store. *)
type point = {
  pt_name : string;
  mutable pt_on : bool;
  mutable pt_count : int;
  pt_log : Span_store.t;
}

type registry = {
  metrics : (string, metric) Hashtbl.t;
  spans : Span_store.t;
  points : (string, point) Hashtbl.t;
  point_log : Span_store.t;
}

let point_capacity = 65536

let create_registry ?(span_capacity = 8192) () =
  { metrics = Hashtbl.create 64;
    spans = Span_store.create ~capacity:span_capacity;
    points = Hashtbl.create 16;
    point_log = Span_store.create ~capacity:point_capacity }

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
  Span_store.clear registry.spans;
  Span_store.clear registry.point_log;
  Hashtbl.iter (fun _ p -> p.pt_count <- 0) registry.points

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

  (* Ids are process-unique and positive; trace ids and span ids draw
     from separate sequences so a wire context is unambiguous even
     across traces. *)
  let next_trace = ref 0
  let next_span = ref 0
  let fresh r = Stdlib.incr r; !r

  let run_note net_of = function
    | [ x ] -> Net (net_of x)
    | l -> Routes (List.length l)

  (* The ambient context as two immediates; trace 0 means none. *)
  let amb_trace = ref 0
  let amb_span = ref 0

  let current () =
    if !amb_trace = 0 then None
    else Some { trace_id = !amb_trace; span_id = !amb_span }

  let with_ids ~trace ~span f =
    let saved_trace = !amb_trace and saved_span = !amb_span in
    amb_trace := trace;
    amb_span := if trace = 0 then 0 else span;
    match f () with
    | v -> amb_trace := saved_trace; amb_span := saved_span; v
    | exception e -> amb_trace := saved_trace; amb_span := saved_span; raise e

  let with_ctx ctx f =
    match ctx with
    | Some c -> with_ids ~trace:c.trace_id ~span:c.span_id f
    | None -> with_ids ~trace:0 ~span:0 f

  (* Close a span: give the ambient context back to its parent, then
     record the span. *)
  let close registry ~parent_trace ~parent ~trace ~span ~name ~start ~clock
      note =
    amb_trace := parent_trace;
    amb_span := parent;
    if !enabled then
      Span_store.push registry.spans ~trace ~span ~parent ~name ~start
        ~stop:(clock ()) note

  let span_sync ?(registry = global) ?note ~name ~clock f =
    if not !enabled then f ()
    else begin
      let parent_trace = !amb_trace and parent = !amb_span in
      let start = clock () in
      let trace = if parent_trace = 0 then fresh next_trace else parent_trace in
      let span = fresh next_span in
      amb_trace := trace;
      amb_span := span;
      match f () with
      | v ->
        close registry ~parent_trace ~parent ~trace ~span ~name ~start ~clock
          note;
        v
      | exception e ->
        close registry ~parent_trace ~parent ~trace ~span ~name ~start ~clock
          note;
        raise e
    end

  let spans ?(registry = global) () =
    Span_store.map registry.spans Span_store.span
  let spans_recorded ?(registry = global) () = registry.spans.Span_store.pushed

  let trace_atom_name = "_xorp_trace"
end

module Profile = struct
  type verb = Add | Delete
  type nonrec point = point
  type record = { time : float; point : string; verb : verb; net : Ipv4net.t }

  let point ?(registry = global) name =
    let name = qualify name in
    match Hashtbl.find_opt registry.points name with
    | Some p -> p
    | None ->
      let p =
        { pt_name = name; pt_on = false; pt_count = 0;
          pt_log = registry.point_log }
      in
      Hashtbl.replace registry.points name p;
      p

  let record p ~clock verb net =
    if p.pt_on then begin
      p.pt_count <- p.pt_count + 1;
      let s = p.pt_log in
      let i = Span_store.claim s in
      let o = i * Span_store.int_stride in
      s.ints.(o + Span_store.f_kind) <-
        (match verb with Add -> 0 | Delete -> 1);
      s.ints.(o + Span_store.f_a) <- Ipv4.to_int (Ipv4net.network net);
      s.ints.(o + Span_store.f_b) <- Ipv4net.prefix_len net;
      s.strs.(2 * i) <- p.pt_name;
      Float.Array.set s.times (2 * i) (clock ())
    end

  let read (s : Span_store.t) i =
    let o = i * Span_store.int_stride in
    { time = Float.Array.get s.times (2 * i);
      point = s.strs.(2 * i);
      verb = (if s.ints.(o + Span_store.f_kind) = 0 then Add else Delete);
      net =
        Ipv4net.make
          (Ipv4.of_int s.ints.(o + Span_store.f_a))
          s.ints.(o + Span_store.f_b) }

  let records ?(registry = global) () = Span_store.map registry.point_log read

  let drain ?(registry = global) () =
    let rs = records ~registry () in
    Span_store.clear registry.point_log;
    rs

  let payload r =
    (match r.verb with Add -> "add " | Delete -> "delete ")
    ^ Ipv4net.to_string r.net

  let to_string r =
    let secs = int_of_float r.time in
    (* Round to the nearest microsecond, carrying into the seconds
       field: truncation would render e.g. 3.9999999 as "3 999999" when
       the clock really read 4.0, and plain rounding could print the
       out-of-range "1000000". *)
    let usecs =
      int_of_float (Float.round ((r.time -. float_of_int secs) *. 1e6))
    in
    let secs, usecs =
      if usecs >= 1_000_000 then (secs + 1, usecs - 1_000_000)
      else (secs, usecs)
    in
    Printf.sprintf "%s %d %06d %s" r.point secs usecs (payload r)

  let to_strings ?registry () = List.map to_string (records ?registry ())

  let list_points ?(registry = global) () =
    Hashtbl.fold
      (fun name p acc -> (name, p.pt_on, p.pt_count) :: acc)
      registry.points []
    |> List.sort compare

  let switch registry name on =
    match Hashtbl.find_opt registry.points name with
    | Some p -> p.pt_on <- on
    | None ->
      invalid_arg
        (Printf.sprintf "unknown profile point %s (known: %s)" name
           (String.concat ", "
              (List.map (fun (n, _, _) -> n) (list_points ~registry ()))))

  let enable ?(registry = global) name = switch registry name true
  let disable ?(registry = global) name = switch registry name false

  let enable_all ?(registry = global) () =
    Hashtbl.iter (fun _ p -> p.pt_on <- true) registry.points

  let disable_all ?(registry = global) () =
    Hashtbl.iter (fun _ p -> p.pt_on <- false) registry.points
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
    Trace.spans ~registry () |> List.map span_json |> String.concat ","
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
       registry.spans.Span_store.len registry.spans.Span_store.pushed);
  Buffer.contents b
