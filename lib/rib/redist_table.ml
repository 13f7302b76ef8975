(* The Redist stage (paper §5.2): route redistribution.

   "A key instrument of routing policy is the process of route
   redistribution, where routes from one routing protocol that match
   certain policy filters are redistributed into another routing
   protocol." The RIB, as the one part of the system that sees
   everyone's routes, hosts this stage.

   The stage is a transparent tap: every update passes through
   unchanged, and for each subscriber the update is additionally run
   through that subscriber's policy program; accepted (possibly
   modified) copies are delivered to the subscriber's callbacks. A
   replace reaches a subscriber as its delete of the old route, then
   its add of the new one, so the subscriber API has two verbs. *)

type subscriber = {
  sub_name : string;
  policy : Policy.program;
  on_add : Rib_route.t -> unit;
  on_delete : Rib_route.t -> unit;
}

(* Expose a RIB route to the policy VM. Stores apply to a scratch
   copy; the caller receives the modified route only on Accept or
   Default. *)
let apply_policy (prog : Policy.program) (r : Rib_route.t) :
  Rib_route.t option =
  let metric = ref r.Rib_route.metric in
  let nexthop = ref r.Rib_route.nexthop in
  let tag = ref (match r.Rib_route.tags with t :: _ -> t | [] -> 0) in
  let ctx =
    {
      Policy.get_attr =
        (function
          | "network" -> Some (Policy.Net r.net)
          | "nexthop" -> Some (Policy.Addr !nexthop)
          | "metric" -> Some (Policy.Int !metric)
          | "admin_distance" -> Some (Policy.Int r.admin_distance)
          | "protocol" -> Some (Policy.Str r.protocol)
          | "tag" -> Some (Policy.Int !tag)
          | _ -> None);
      set_attr =
        (fun name v ->
           match name, v with
           | "metric", Policy.Int m ->
             metric := m;
             Ok ()
           | "nexthop", Policy.Addr a ->
             nexthop := a;
             Ok ()
           | "tag", Policy.Int t ->
             tag := t;
             Ok ()
           | ("network" | "protocol" | "admin_distance"), _ ->
             Error "read-only attribute"
           | _ -> Error "unknown or mistyped attribute");
    }
  in
  match Policy.eval prog ctx with
  | Ok Policy.Reject -> None
  | Ok (Policy.Accept | Policy.Default) ->
    Some
      { r with
        Rib_route.metric = !metric;
        nexthop = !nexthop;
        tags = (if !tag = 0 then [] else [ !tag ]) }
  | Error _ ->
    (* A faulting filter fails closed: the route is not redistributed,
       but the main pipeline is unaffected. *)
    None

class redist_table ~name ~(parent : Rib_table.table) () =
  object (self)
    inherit Rib_table.base name
    val h_add = Telemetry.histogram ("rib." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("rib." ^ name ^ ".delete_us")
    val mutable subscribers : subscriber list = []

    method subscribe (s : subscriber) =
      subscribers <- subscribers @ [ s ]

    method unsubscribe sub_name =
      subscribers <- List.filter (fun s -> s.sub_name <> sub_name) subscribers

    method subscriber_names = List.map (fun s -> s.sub_name) subscribers

    method private tap f (r : Rib_route.t) =
      List.iter
        (fun s ->
           match apply_policy s.policy r with
           | Some r' -> f s r'
           | None -> ())
        subscribers

    method add_route _src r =
      Telemetry.time h_add @@ fun () ->
      self#tap (fun s r' -> s.on_add r') r;
      self#push_add r

    method delete_route _src r =
      Telemetry.time h_del @@ fun () ->
      self#tap (fun s r' -> s.on_delete r') r;
      self#push_delete r

    method! replace_route _src old r =
      Telemetry.time h_add @@ fun () ->
      self#tap (fun s r' -> s.on_delete r') old;
      self#tap (fun s r' -> s.on_add r') r;
      self#push_replace old r

    (* Transparent to pulls. *)
    method lookup_route net = parent#lookup_route net
    method lookup_best addr = parent#lookup_best addr
  end
