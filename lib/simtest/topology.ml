(* Declarative router topologies for the simulation harness (see
   topology.mli). A topology is pure data — nodes with protocol sets
   and undirected links — plus the deterministic addressing scheme the
   multi-router world derives everything from. *)

type bgp_mode = B_off | B_ebgp | B_ibgp

type protos = { bgp : bgp_mode; rip : bool; ospf : bool }

let bgp_only = { bgp = B_ebgp; rip = false; ospf = false }
let ibgp_only = { bgp = B_ibgp; rip = false; ospf = false }
let no_protos = { bgp = B_off; rip = false; ospf = false }

type node = { name : string; protos : protos }

type link = string * string

type t = { nodes : node list; links : link list }

(* --- construction ------------------------------------------------------ *)

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       n

let norm_link (a, b) = if String.compare a b <= 0 then (a, b) else (b, a)

let make ~nodes ~links =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if not (valid_name n.name) then
        invalid_arg (Printf.sprintf "Topology.make: bad router name %S" n.name);
      if Hashtbl.mem seen n.name then
        invalid_arg
          (Printf.sprintf "Topology.make: duplicate router %S" n.name);
      Hashtbl.replace seen n.name ())
    nodes;
  let links =
    List.map
      (fun (a, b) ->
        if a = b then
          invalid_arg (Printf.sprintf "Topology.make: self-link on %S" a);
        if not (Hashtbl.mem seen a) then
          invalid_arg (Printf.sprintf "Topology.make: link names unknown %S" a);
        if not (Hashtbl.mem seen b) then
          invalid_arg (Printf.sprintf "Topology.make: link names unknown %S" b);
        norm_link (a, b))
      links
    |> List.sort_uniq compare
  in
  { nodes; links }

let equal a b = a.nodes = b.nodes && a.links = b.links
let size t = List.length t.nodes

let node_index t name =
  let rec go i = function
    | [] -> None
    | n :: _ when n.name = name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.nodes

let node t name = List.find_opt (fun n -> n.name = name) t.nodes
let has_link t ab = List.mem (norm_link ab) t.links

let link_index t ab =
  let ab = norm_link ab in
  let rec go i = function
    | [] -> None
    | l :: _ when l = ab -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.links

let drop_node t name =
  { nodes = List.filter (fun n -> n.name <> name) t.nodes;
    links = List.filter (fun (a, b) -> a <> name && b <> name) t.links }

let drop_link t ab =
  let ab = norm_link ab in
  { t with links = List.filter (fun l -> l <> ab) t.links }

(* --- generators -------------------------------------------------------- *)

let rname i = Printf.sprintf "r%d" (i + 1)

let chain n =
  if n < 1 then invalid_arg "Topology.chain";
  make
    ~nodes:(List.init n (fun i -> { name = rname i; protos = bgp_only }))
    ~links:(List.init (max 0 (n - 1)) (fun i -> (rname i, rname (i + 1))))

let ibgp_fullmesh n =
  if n < 1 then invalid_arg "Topology.ibgp_fullmesh";
  let links = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      links := (rname i, rname j) :: !links
    done
  done;
  make
    ~nodes:(List.init n (fun i -> { name = rname i; protos = ibgp_only }))
    ~links:!links

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Topology.grid";
  let at r c = rname ((r * cols) + c) in
  let links = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then links := (at r c, at r (c + 1)) :: !links;
      if r + 1 < rows then links := (at r c, at (r + 1) c) :: !links
    done
  done;
  make
    ~nodes:
      (List.init (rows * cols) (fun i -> { name = rname i; protos = bgp_only }))
    ~links:!links

(* An eBGP core chain with RIP and OSPF edge regions: the non-core
   routers hang off the core round-robin, alternating protocol, and
   the core router they attach to also runs that protocol so the leaf
   routes reach its RIB. *)
let mixed n =
  if n < 2 then invalid_arg "Topology.mixed";
  let ncore = max 2 ((n + 1) / 2) in
  let nleaf = n - ncore in
  let core = Array.init ncore (fun i -> { name = rname i; protos = bgp_only }) in
  let links = ref (List.init (ncore - 1) (fun i -> (rname i, rname (i + 1)))) in
  let leaves =
    List.init nleaf (fun j ->
        let attach = j mod ncore in
        let is_rip = j mod 2 = 0 in
        let protos =
          if is_rip then { no_protos with rip = true }
          else { no_protos with ospf = true }
        in
        core.(attach) <-
          (let p = core.(attach).protos in
           { core.(attach) with
             protos =
               (if is_rip then { p with rip = true } else { p with ospf = true })
           });
        links := (rname attach, rname (ncore + j)) :: !links;
        { name = rname (ncore + j); protos })
  in
  make ~nodes:(Array.to_list core @ leaves) ~links:!links

(* The seed-indexed family the fuzzer explores: small (the fault
   schedules, not raw size, are what it is searching over), but
   covering every generator shape plus random extra links. *)
let generate ~seed =
  let g = Rng.create ((seed * 0x2545F491) lxor 0x70B07069) in
  let n = 2 + Rng.int g 7 in
  let base =
    match Rng.int g 4 with
    | 0 -> chain n
    | 1 -> ibgp_fullmesh (min n 5)
    | 2 -> grid (1 + Rng.int g 2) (max 2 ((n + 1) / 2))
    | _ -> mixed n
  in
  (* Sprinkle extra links over the eBGP shapes (fullmesh has no room;
     leaves keep their single uplink so their routes stay attributable). *)
  let candidates =
    let names =
      List.filter_map
        (fun nd -> if nd.protos.bgp = B_ebgp then Some nd.name else None)
        base.nodes
    in
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if String.compare a b < 0 && not (has_link base (a, b)) then
              Some (a, b)
            else None)
          names)
      names
  in
  let extra = Rng.int g 3 in
  let rec add t k cands =
    if k = 0 || cands = [] then t
    else
      let i = Rng.int g (List.length cands) in
      let l = List.nth cands i in
      add
        (make ~nodes:t.nodes ~links:(l :: t.links))
        (k - 1)
        (List.filteri (fun j _ -> j <> i) cands)
  in
  add base extra candidates

(* --- text form --------------------------------------------------------- *)

let protos_to_string p =
  let toks =
    (match p.bgp with B_off -> [] | B_ebgp -> [ "bgp" ] | B_ibgp -> [ "ibgp" ])
    @ (if p.rip then [ "rip" ] else [])
    @ if p.ospf then [ "ospf" ] else []
  in
  match toks with [] -> "none" | _ -> String.concat "," toks

let protos_of_string s =
  if s = "none" then Ok no_protos
  else
    List.fold_left
      (fun acc tok ->
        match acc with
        | Error _ as e -> e
        | Ok p -> (
          match tok with
          | "bgp" -> Ok { p with bgp = B_ebgp }
          | "ibgp" -> Ok { p with bgp = B_ibgp }
          | "rip" -> Ok { p with rip = true }
          | "ospf" -> Ok { p with ospf = true }
          | t -> Error (Printf.sprintf "unknown protocol %S" t)))
      (Ok no_protos)
      (String.split_on_char ',' s |> List.filter (fun w -> w <> ""))

let to_string t =
  let b = Buffer.create 256 in
  List.iter
    (fun n ->
      Printf.bprintf b "router %s protocols=%s\n" n.name
        (protos_to_string n.protos))
    t.nodes;
  List.iter (fun (x, y) -> Printf.bprintf b "link %s %s\n" x y) t.links;
  Buffer.contents b

(* One topology line. [router]/[link] build the topology up
   incrementally; [topology <generator> ...] is sugar that expands a
   whole generated shape in place (and prints back in expanded form,
   so the canonical text never contains it). *)
let parse_line ~nodes ~links line words =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match words with
  | [ "router"; name ] ->
    nodes := { name; protos = bgp_only } :: !nodes;
    Ok true
  | [ "router"; name; p ] when String.length p > 10
                               && String.sub p 0 10 = "protocols=" ->
    (match protos_of_string (String.sub p 10 (String.length p - 10)) with
     | Ok protos ->
       nodes := { name; protos } :: !nodes;
       Ok true
     | Error e -> err "%s in %S" e line)
  | [ "link"; a; b ] ->
    links := (a, b) :: !links;
    Ok true
  | "topology" :: rest -> (
    let expand t =
      nodes := List.rev_append t.nodes !nodes;
      links := List.rev_append t.links !links;
      Ok true
    in
    match rest with
    | [ "chain"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> expand (chain n)
      | _ -> err "bad chain size in %S" line)
    | [ "ibgp-fullmesh"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> expand (ibgp_fullmesh n)
      | _ -> err "bad mesh size in %S" line)
    | [ "grid"; dims ] -> (
      match String.split_on_char 'x' dims with
      | [ r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some r, Some c when r >= 1 && c >= 1 -> expand (grid r c)
        | _ -> err "bad grid size in %S" line)
      | _ -> err "bad grid size in %S" line)
    | [ "mixed"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> expand (mixed n)
      | _ -> err "bad mixed size in %S" line)
    | _ -> err "unknown generator in %S" line)
  | _ -> Ok false

let of_string text =
  let nodes = ref [] and links = ref [] in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let rec go = function
    | [] -> (
      try Ok (make ~nodes:(List.rev !nodes) ~links:(List.rev !links))
      with Invalid_argument m -> Error m)
    | line :: rest -> (
      let words =
        String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
      in
      match parse_line ~nodes ~links line words with
      | Ok true -> go rest
      | Ok false -> Error (Printf.sprintf "cannot parse line %S" line)
      | Error _ as e -> e)
  in
  go lines

(* --- addressing -------------------------------------------------------- *)

let ipv4 = Ipv4.of_octets

(* The XRL plane of router [idx] runs over simulated streams on its
   sim address; it doubles as the router's BGP id / OSPF router id.
   Kept disjoint from every link subnet (those start at 10.1.0.0). *)
let sim_addr idx =
  if idx < 0 || idx >= 250 * 250 then invalid_arg "Topology.sim_addr";
  ipv4 10 0 (idx / 250) (1 + (idx mod 250))

(* Each router originates one prefix into its routing protocol. *)
let origin_prefix idx =
  if idx < 0 || idx >= 250 * 256 then invalid_arg "Topology.origin_prefix";
  Ipv4net.make (ipv4 198 (18 + (idx / 256)) (idx mod 256) 0) 24

(* Link [idx] owns one /24; the lexicographically lower-named end gets
   .1, the other .2. *)
let link_subnet idx =
  if idx < 0 || idx >= 250 * 250 then invalid_arg "Topology.link_subnet";
  Ipv4net.make (ipv4 10 (1 + (idx / 250)) (idx mod 250) 0) 24

let link_addrs idx =
  let base = Ipv4.to_int (Ipv4net.network (link_subnet idx)) in
  (Ipv4.of_int (base + 1), Ipv4.of_int (base + 2))
