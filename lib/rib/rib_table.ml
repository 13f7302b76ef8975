(* The RIB stage interface (paper §5.2, Figure 7).

   A RIB is a network of stages through which routes flow. add_route
   and delete_route push downstream; lookup_route (exact prefix) and
   lookup_best (longest match) pull upstream. The [src] argument of the
   push methods identifies the upstream neighbour, which is how a merge
   stage with two parents knows which side an update came from.

   replace_route src old new, the fourth operation, replaces [old] with
   [new] for the same prefix in one message, as BGP's stages do (see
   Bgp_table). It must follow an add of [old] for the same prefix from
   the same [src], and it leaves [new] current, exactly as delete_route
   old then add_route new would; [base] implements it as that pair.

   The two consistency rules of §5.1 apply here too: a delete_route or
   replace_route must correspond to a previous add_route, and lookup
   answers must agree with the stream already sent downstream. The
   test suite wires a checking sink downstream of the RIB to enforce
   this. *)

class type table = object
  method tbl_name : string
  method add_route : table -> Rib_route.t -> unit
  method delete_route : table -> Rib_route.t -> unit
  method replace_route : table -> Rib_route.t -> Rib_route.t -> unit
  method lookup_route : Ipv4net.t -> Rib_route.t option
  method lookup_best : Ipv4.t -> Rib_route.t option
  method set_next : table option -> unit
end

(* Base class providing the downstream plumbing. *)
class virtual base (name : string) =
  object (self)
    val mutable next : table option = None
    method tbl_name : string = name
    method set_next (n : table option) = next <- n

    method virtual add_route : table -> Rib_route.t -> unit
    method virtual delete_route : table -> Rib_route.t -> unit
    method virtual lookup_route : Ipv4net.t -> Rib_route.t option
    method virtual lookup_best : Ipv4.t -> Rib_route.t option

    method replace_route (src : table) (old : Rib_route.t) (r : Rib_route.t) =
      self#delete_route src old;
      self#add_route src r

    method private push_add (r : Rib_route.t) =
      match next with Some n -> n#add_route (self :> table) r | None -> ()

    method private push_delete (r : Rib_route.t) =
      match next with Some n -> n#delete_route (self :> table) r | None -> ()

    method private push_replace (old : Rib_route.t) (r : Rib_route.t) =
      match next with
      | Some n -> n#replace_route (self :> table) old r
      | None -> ()
  end

let plumb (parent : #base) (child : #table) =
  parent#set_next (Some (child :> table))

(* A sink: terminates a pipeline, handing updates to callbacks. Pull
   requests go to its parent. A replace arrives as [on_delete old]
   then [on_add new]; a sink that wants it whole overrides
   replace_route. *)
class sink ~name ~(parent : table) ~(on_add : Rib_route.t -> unit)
    ~(on_delete : Rib_route.t -> unit) =
  object
    inherit base name
    method add_route _src r = on_add r
    method delete_route _src r = on_delete r
    method lookup_route net = parent#lookup_route net
    method lookup_best addr = parent#lookup_best addr
  end
