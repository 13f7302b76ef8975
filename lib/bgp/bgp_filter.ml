(* Filter-bank stages (paper §5.1, Figures 4–5): run the policy stack
   language over routes flowing through a peer branch.

   A bank holds an ordered list of compiled policy programs. For each
   route: Reject drops it; Accept keeps it (with modifications) and
   stops; Default keeps modifications and falls through to the next
   program. Deletes are filtered identically, so a delete maps to the
   same transformed route as its original add, and a replace runs both
   of its routes through the bank — provided the programs
   haven't changed in between, which is why replacing the bank's
   programs triggers a background re-filter pass that reconciles the
   downstream view (old programs vs new programs, route by route).

   Attributes exposed to the policy VM: network (ro), nexthop (rw),
   med (rw), localpref (rw), origin (rw: 0 igp, 1 egp, 2 incomplete),
   aspath_len (ro), first_asn (ro), peer_as (ro), aspath_prepend
   (wo: prepend the local AS n times), community_add (wo), and
   community_<n> (ro: membership test). *)

let run_programs ~local_as ~peer_as (programs : Policy.program list)
    (r : Bgp_types.route) : Bgp_types.route option =
  let a = r.Bgp_types.attrs in
  let nexthop = ref a.Bgp_types.nexthop in
  let med = ref a.med in
  let localpref = ref a.localpref in
  let origin = ref a.origin in
  let aspath = ref a.aspath in
  let communities = ref a.communities in
  let ctx =
    {
      Policy.get_attr =
        (fun name ->
           match name with
           | "network" -> Some (Policy.Net r.net)
           | "nexthop" -> Some (Policy.Addr !nexthop)
           | "med" -> Some (Policy.Int (Option.value !med ~default:0))
           | "localpref" ->
             Some (Policy.Int (Option.value !localpref ~default:100))
           | "origin" -> Some (Policy.Int (Bgp_types.origin_rank !origin))
           | "aspath_len" -> Some (Policy.Int (Aspath.length !aspath))
           | "first_asn" ->
             Some (Policy.Int (Option.value (Aspath.first_as !aspath) ~default:0))
           | "peer_as" -> Some (Policy.Int peer_as)
           | name ->
             (match String.length name > 10
                    && String.sub name 0 10 = "community_" with
              | true ->
                (match int_of_string_opt (String.sub name 10 (String.length name - 10)) with
                 | Some c -> Some (Policy.Bool (List.mem c !communities))
                 | None -> None)
              | false -> None));
      set_attr =
        (fun name v ->
           match name, v with
           | "nexthop", Policy.Addr x ->
             nexthop := x;
             Ok ()
           | "med", Policy.Int x ->
             med := Some x;
             Ok ()
           | "localpref", Policy.Int x ->
             localpref := Some x;
             Ok ()
           | "origin", Policy.Int x when x >= 0 && x <= 2 ->
             origin :=
               (if x = 0 then Bgp_types.IGP
                else if x = 1 then Bgp_types.EGP
                else Bgp_types.INCOMPLETE);
             Ok ()
           | "aspath_prepend", Policy.Int n when n >= 0 && n <= 16 ->
             aspath := Aspath.prepend_n local_as n !aspath;
             Ok ()
           | "community_add", Policy.Int c ->
             if not (List.mem c !communities) then
               communities := !communities @ [ c ];
             Ok ()
           | ("network" | "aspath_len" | "first_asn" | "peer_as"), _ ->
             Error "read-only attribute"
           | _ -> Error "unknown or mistyped attribute");
    }
  in
  let rebuild () =
    { r with
      Bgp_types.attrs =
        { a with
          Bgp_types.nexthop = !nexthop; med = !med; localpref = !localpref;
          origin = !origin; aspath = !aspath; communities = !communities } }
  in
  let rec run = function
    | [] -> Some (rebuild ())
    | p :: rest ->
      (match Policy.eval p ctx with
       | Ok Policy.Reject -> None
       | Ok Policy.Accept -> Some (rebuild ())
       | Ok Policy.Default -> run rest
       | Error _ ->
         (* A faulting filter fails closed for this route. *)
         None)
  in
  run programs

(* An empty bank is the identity: the route itself passes, uncopied. *)
let apply_programs ~local_as ~peer_as programs r =
  match programs with
  | [] -> Some r
  | _ -> run_programs ~local_as ~peer_as programs r

class filter_table ~name ~(parent : Bgp_table.table) ~(local_as : int)
    ~(peer_as : int) ?(programs : Policy.program list = []) () =
  object (self)
    inherit Bgp_table.base name
    val h_add = Telemetry.histogram ("bgp." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("bgp." ^ name ^ ".delete_us")
    val mutable programs = programs
    val mutable refilter_task : Eventloop.task option = None

    method programs = programs

    method private apply r = apply_programs ~local_as ~peer_as programs r

    method add_route r =
      Telemetry.time h_add @@ fun () ->
      match self#apply r with
      | Some r' -> self#push_add r'
      | None -> ()

    method delete_route r =
      Telemetry.time h_del @@ fun () ->
      match self#apply r with
      | Some r' -> self#push_delete r'
      | None -> ()

    (* The bank may accept either route, both or neither, so a
       replace leaves as a replace, a delete, an add or nothing. *)
    method! replace_route old r =
      Telemetry.time h_add @@ fun () -> self#emit (self#apply old) (self#apply r)

    method private emit old_out new_out =
      match old_out, new_out with
      | None, None -> ()
      | Some o, Some n -> self#push_replace o n
      | Some o, None -> self#push_delete o
      | None, Some n -> self#push_add n

    method lookup_route net =
      match parent#lookup_route net with
      | Some r -> self#apply r
      | None -> None

    method refiltering = refilter_task <> None

    (* Replace the bank's programs and reconcile downstream in the
       background (paper §5.1.2: "when routing policy filters are
       changed by the operator and many routes need to be re-filtered
       and reevaluated" — another dynamic background job). [pull]
       yields original upstream routes one at a time. *)
    method replace_programs ~(loop : Eventloop.t) ?(slice = 100)
        ?(on_complete = fun () -> ())
        ~(pull : unit -> Bgp_types.route option)
        (new_programs : Policy.program list) =
      let old_programs = programs in
      programs <- new_programs;
      let one () =
        match pull () with
        | None ->
          refilter_task <- None;
          on_complete ();
          `Done
        | Some r ->
          let old_out = apply_programs ~local_as ~peer_as old_programs r in
          let new_out = self#apply r in
          (match old_out, new_out with
           | Some o, Some n when Bgp_types.route_equal o n -> ()
           | _ -> self#emit old_out new_out);
          `Continue
      in
      (match refilter_task with
       | Some t -> Eventloop.remove_task t
       | None -> ());
      refilter_task <- Some (Eventloop.add_task loop ~weight:slice one)
  end
