(* The BGP stage interface (paper §5.1, Figures 4–6).

   "There is no single routing table object, but rather a network of
   pluggable routing stages, each implementing the same interface."

   Three operations are the paper's:
   - add_route: a preceding stage is sending a new route downstream;
   - delete_route: a preceding stage is withdrawing a route;
   - lookup_route: a later stage is asking upstream for the current
     route to a destination subnet.

   The fourth, replace_route old new, is XORP's own: a preceding stage
   is replacing [old] with [new] for the same prefix, in one message.
   It must follow an add of [old] for the same prefix and branch, and
   it leaves [new] current, exactly as delete_route old then add_route
   new would. That pair is what [base] does with it, so a stage with
   nothing to gain from one message keeps its add and delete code; a
   stage that overrides it saves the second pass (one re-evaluation
   in Decision, one log entry in the fanout) and never shows a later
   stage the moment in between, when neither route is present.

   Consistency rules (§5.1): every delete or replace must correspond to
   a previous add, and lookup answers must agree with the stream
   already sent downstream. Deletes are matched by (net, peer branch):
   attribute-modifying stages may be reconfigured between an add and
   the corresponding delete, so requiring byte-identical attributes
   would be unsatisfiable. The Cache_table checking stage enforces the
   net-level rules at runtime.

   Stages are replumbable at runtime — that is how dynamic deletion
   stages splice themselves in after a peering failure (§5.1.2) and
   remove themselves when their background work completes. *)

class type table = object
  method tbl_name : string
  method add_route : Bgp_types.route -> unit
  method delete_route : Bgp_types.route -> unit
  method replace_route : Bgp_types.route -> Bgp_types.route -> unit
  method lookup_route : Ipv4net.t -> Bgp_types.route option
  method set_next : table option -> unit
end

class virtual base (name : string) =
  object (self)
    val mutable next : table option = None
    method tbl_name : string = name
    method set_next (n : table option) = next <- n
    method next_table = next

    method virtual add_route : Bgp_types.route -> unit
    method virtual delete_route : Bgp_types.route -> unit
    method virtual lookup_route : Ipv4net.t -> Bgp_types.route option

    method replace_route (old : Bgp_types.route) (r : Bgp_types.route) =
      self#delete_route old;
      self#add_route r

    method private push_add (r : Bgp_types.route) =
      match next with Some n -> n#add_route r | None -> ()

    method private push_delete (r : Bgp_types.route) =
      match next with Some n -> n#delete_route r | None -> ()

    method private push_replace (old : Bgp_types.route) (r : Bgp_types.route) =
      match next with Some n -> n#replace_route old r | None -> ()
  end

let plumb (parent : #base) (child : #table) =
  parent#set_next (Some (child :> table))

(* Terminal sink handing updates to callbacks; lookups are answered by
   the upstream parent. A replace arrives as [on_delete old] then
   [on_add new]; a sink that wants it whole overrides replace_route. *)
class sink ~name ~(parent : table) ~(on_add : Bgp_types.route -> unit)
    ~(on_delete : Bgp_types.route -> unit) =
  object
    inherit base name
    method add_route r = on_add r
    method delete_route r = on_delete r
    method lookup_route net = parent#lookup_route net
  end
