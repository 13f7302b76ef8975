type leaf_type = T_u32 | T_txt | T_bool | T_ipv4 | T_ipv4net | T_float

type leaf_spec = { l_name : string; l_type : leaf_type; l_mandatory : bool }

type node_spec = {
  n_name : string;
  n_keyed : [ `No_key | `Key of leaf_type ];
  n_leaves : leaf_spec list;
  n_children : node_spec list;
  n_multiple : bool;
}

let leaf ?(mandatory = false) l_name l_type =
  { l_name; l_type; l_mandatory = mandatory }

let node ?(keyed = `No_key) ?(multiple = false) ?(leaves = []) ?(children = [])
    n_name =
  { n_name; n_keyed = keyed; n_leaves = leaves; n_children = children;
    n_multiple = multiple }

let type_name = function
  | T_u32 -> "u32"
  | T_txt -> "txt"
  | T_bool -> "bool"
  | T_ipv4 -> "ipv4"
  | T_ipv4net -> "ipv4net"
  | T_float -> "float"

let value_ok ty v =
  match ty with
  | T_txt -> true
  | T_u32 -> (match int_of_string_opt v with Some n -> n >= 0 | None -> false)
  | T_bool -> v = "true" || v = "false"
  | T_ipv4 -> Ipv4.of_string v <> None
  | T_ipv4net -> Ipv4net.of_string v <> None
  | T_float -> float_of_string_opt v <> None

let validate specs root =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let rec check_node ~where (spec : node_spec) (cfg : Config_tree.t) =
    let where = where ^ "/" ^ Config_tree.node_id cfg in
    (match spec.n_keyed, cfg.Config_tree.key with
     | `No_key, Some k -> problem "%s: unexpected key %S" where k
     | `Key _, None -> problem "%s: missing key" where
     | `Key ty, Some k ->
       if not (value_ok ty k) then
         problem "%s: key %S is not a valid %s" where k (type_name ty)
     | `No_key, None -> ());
    List.iter
      (fun (name, v) ->
         match List.find_opt (fun l -> l.l_name = name) spec.n_leaves with
         | None -> problem "%s: unknown attribute %S" where name
         | Some l ->
           if not (value_ok l.l_type v) then
             problem "%s: attribute %s: %S is not a valid %s" where name v
               (type_name l.l_type))
      cfg.Config_tree.leaves;
    List.iter
      (fun l ->
         if l.l_mandatory && Config_tree.leaf cfg l.l_name = None then
           problem "%s: missing required attribute %S" where l.l_name)
      spec.n_leaves;
    check_children ~where spec.n_children cfg
  and check_children ~where child_specs (cfg : Config_tree.t) =
    (* Unknown children *)
    List.iter
      (fun (c : Config_tree.t) ->
         if not (List.exists (fun s -> s.n_name = c.Config_tree.name) child_specs)
         then problem "%s: unknown section %S" where c.Config_tree.name)
      cfg.Config_tree.children;
    (* Known children: multiplicity and recursion *)
    List.iter
      (fun spec ->
         let instances = Config_tree.children cfg spec.n_name in
         if (not spec.n_multiple) && List.length instances > 1 then
           problem "%s: section %S may appear only once" where spec.n_name;
         List.iter (fun inst -> check_node ~where spec inst) instances)
      child_specs
  in
  check_children ~where:""
    specs
    root;
  match List.rev !problems with [] -> Ok () | ps -> Error ps

let builtin : node_spec list =
  [
    node "interfaces"
      ~children:
        [ node "interface" ~keyed:(`Key T_txt) ~multiple:true
            ~leaves:[ leaf ~mandatory:true "address" T_ipv4 ] ];
    node "telemetry" ~leaves:[ leaf "enabled" T_bool ];
    node "protocols"
      ~children:
        [
          node "static"
            ~children:
              [ node "route" ~keyed:(`Key T_ipv4net) ~multiple:true
                  ~leaves:
                    [ leaf ~mandatory:true "nexthop" T_ipv4;
                      leaf "metric" T_u32 ] ];
          node "bgp"
            ~leaves:
              [ leaf ~mandatory:true "local-as" T_u32;
                leaf ~mandatory:true "bgp-id" T_ipv4 ]
            ~children:
              [
                node "network" ~keyed:(`Key T_ipv4net) ~multiple:true;
                node "peer" ~keyed:(`Key T_ipv4) ~multiple:true
                  ~leaves:
                    [ leaf ~mandatory:true "as" T_u32;
                      leaf ~mandatory:true "local-ip" T_ipv4;
                      leaf "holdtime" T_u32;
                      leaf "connect-retry" T_float;
                      leaf "damping" T_bool;
                      leaf "checking-cache" T_bool;
                      leaf "import-policy" T_txt;
                      leaf "export-policy" T_txt ];
              ];
          node "ospf"
            ~leaves:
              [ leaf ~mandatory:true "router-id" T_ipv4;
                leaf "hello-interval" T_float;
                leaf "dead-interval" T_float ]
            ~children:
              [ node "interface" ~keyed:(`Key T_ipv4) ~multiple:true
                  ~children:
                    [ node "neighbor" ~keyed:(`Key T_ipv4) ~multiple:true
                        ~leaves:
                          [ leaf ~mandatory:true "router-id" T_ipv4;
                            leaf "cost" T_u32 ] ];
                node "stub" ~keyed:(`Key T_ipv4net) ~multiple:true
                  ~leaves:[ leaf "cost" T_u32 ] ];
          node "rip"
            ~leaves:
              [ leaf "update-interval" T_float;
                leaf "timeout" T_float;
                leaf "redistribute" T_txt ]
            ~children:
              [ node "interface" ~keyed:(`Key T_ipv4) ~multiple:true
                  ~leaves:[ leaf "neighbor" T_ipv4 ];
                node "route" ~keyed:(`Key T_ipv4net) ~multiple:true
                  ~leaves:[ leaf "metric" T_u32 ] ];
        ];
  ]
