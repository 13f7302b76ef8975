(* Merge stages: the RIB's distributed decision process (paper §5.2).

   A merge stage combines two route streams, resolving conflicts for
   the same prefix by administrative distance. Parent [a] wins ties, so
   plumb the preferred side as [a]. Because decisions are pairwise and
   local, new protocols are added by inserting one more merge stage —
   no central decision process needs to change.

   A replace from one side looks the other side up once: if the other
   side's route beat the old one and still beats the new one, nothing
   was propagated and nothing changes; otherwise the propagated route
   is replaced by whichever of the two now wins. *)

let better (x : Rib_route.t) (y : Rib_route.t) ~x_wins_ties =
  if x_wins_ties then x.admin_distance <= y.admin_distance
  else x.admin_distance < y.admin_distance

class merge_table ~name (a : Rib_table.table) (b : Rib_table.table) =
  object (self)
    inherit Rib_table.base name
    val h_add = Telemetry.histogram ("rib." ^ name ^ ".add_us")
    val h_del = Telemetry.histogram ("rib." ^ name ^ ".delete_us")

    method private other_of src : Rib_table.table * bool =
      (* Returns (other parent, [src was the tie-winning side]). *)
      if src == a then (b, true)
      else if src == b then (a, false)
      else invalid_arg (name ^ ": add from unknown parent " ^ src#tbl_name)

    method add_route src (r : Rib_route.t) =
      Telemetry.time h_add @@ fun () ->
      let other, from_a = self#other_of src in
      match other#lookup_route r.net with
      | None -> self#push_add r
      | Some o ->
        if better r o ~x_wins_ties:from_a then begin
          (* The other side's route had been propagated; replace it. *)
          self#push_delete o;
          self#push_add r
        end

    method delete_route src (r : Rib_route.t) =
      Telemetry.time h_del @@ fun () ->
      let other, from_a = self#other_of src in
      match other#lookup_route r.net with
      | None -> self#push_delete r
      | Some o ->
        if better r o ~x_wins_ties:from_a then begin
          (* r was the winner; fall back to the other side's route. *)
          self#push_delete r;
          self#push_add o
        end
    (* else r was shadowed and never propagated: drop silently. *)

    method! replace_route src (old : Rib_route.t) (r : Rib_route.t) =
      Telemetry.time h_add @@ fun () ->
      let other, from_a = self#other_of src in
      match other#lookup_route r.net with
      | None -> self#push_replace old r
      | Some o ->
        (match better old o ~x_wins_ties:from_a, better r o ~x_wins_ties:from_a with
         | true, true -> self#push_replace old r
         | true, false -> self#push_replace old o
         | false, true -> self#push_replace o r
         | false, false -> ())

    method lookup_route net =
      match a#lookup_route net, b#lookup_route net with
      | None, None -> None
      | (Some _ as r), None | None, (Some _ as r) -> r
      | Some ra, Some rb ->
        Some (if better ra rb ~x_wins_ties:true then ra else rb)

    method lookup_best addr =
      match a#lookup_best addr, b#lookup_best addr with
      | None, None -> None
      | (Some _ as r), None | None, (Some _ as r) -> r
      | Some ra, Some rb ->
        (* More-specific prefix wins regardless of distance; equal
           specificity falls back to distance with a winning ties. *)
        let la = Ipv4net.prefix_len ra.Rib_route.net
        and lb = Ipv4net.prefix_len rb.Rib_route.net in
        if la > lb then Some ra
        else if lb > la then Some rb
        else Some (if better ra rb ~x_wins_ties:true then ra else rb)
  end
