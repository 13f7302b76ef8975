type t = {
  net : Ipv4net.t;
  nexthop : Ipv4.t;
  metric : int;
  admin_distance : int;
  protocol : string;
  tags : int list;
}

let default_admin_distance = function
  | "connected" -> Some 0
  | "static" -> Some 1
  | "ebgp" -> Some 20
  | "ospf" -> Some 110
  | "rip" -> Some 120
  | "ibgp" -> Some 200
  | _ -> None

let make ~net ~nexthop ?(metric = 0) ?admin_distance ~protocol ?(tags = []) () =
  let admin_distance =
    match admin_distance with
    | Some d -> d
    | None -> Option.value (default_admin_distance protocol) ~default:255
  in
  { net; nexthop; metric; admin_distance; protocol; tags }

let equal a b =
  Ipv4net.equal a.net b.net
  && Ipv4.equal a.nexthop b.nexthop
  && a.metric = b.metric
  && a.admin_distance = b.admin_distance
  && String.equal a.protocol b.protocol
  && a.tags = b.tags

let to_string r =
  Printf.sprintf "%s via %s metric %d [%s/%d]%s"
    (Ipv4net.to_string r.net) (Ipv4.to_string r.nexthop) r.metric r.protocol
    r.admin_distance
    (match r.tags with
     | [] -> ""
     | tags -> " tags " ^ String.concat "," (List.map string_of_int tags))
