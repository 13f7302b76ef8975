type arg_type =
  | A_u32
  | A_i32
  | A_u64
  | A_txt
  | A_bool
  | A_ipv4
  | A_ipv4net
  | A_binary
  | A_list

type arg_spec = { a_name : string; a_type : arg_type; a_optional : bool }

type method_spec = {
  m_name : string;
  m_args : arg_spec list;
  m_returns : arg_spec list;
}

type interface = {
  i_name : string;
  i_version : string;
  i_methods : method_spec list;
}

let arg ?(optional = false) a_name a_type =
  { a_name; a_type; a_optional = optional }

let meth ?(args = []) ?(returns = []) m_name =
  { m_name; m_args = args; m_returns = returns }

let iface ~name ?(version = "1.0") methods =
  { i_name = name; i_version = version; i_methods = methods }

let type_of_value : Xrl_atom.value -> arg_type = function
  | U32 _ -> A_u32
  | I32 _ -> A_i32
  | U64 _ -> A_u64
  | Txt _ -> A_txt
  | Bool _ -> A_bool
  | Ipv4_v _ -> A_ipv4
  | Ipv4net_v _ -> A_ipv4net
  | Binary _ -> A_binary
  | List _ -> A_list

let type_name = function
  | A_u32 -> "u32"
  | A_i32 -> "i32"
  | A_u64 -> "u64"
  | A_txt -> "txt"
  | A_bool -> "bool"
  | A_ipv4 -> "ipv4"
  | A_ipv4net -> "ipv4net"
  | A_binary -> "binary"
  | A_list -> "list"

let check_args ~what specs (atoms : Xrl_atom.t list) =
  let problem = ref None in
  let note msg = if !problem = None then problem := Some msg in
  List.iter
    (fun spec ->
       match List.find_opt (fun (a : Xrl_atom.t) -> a.name = spec.a_name) atoms with
       | None ->
         if not spec.a_optional then
           note
             (Printf.sprintf "%s: missing argument %S" what spec.a_name)
       | Some a ->
         if type_of_value a.value <> spec.a_type then
           note
             (Printf.sprintf "%s: argument %S has type %s, expected %s" what
                spec.a_name
                (type_name (type_of_value a.value))
                (type_name spec.a_type)))
    specs;
  List.iter
    (fun (a : Xrl_atom.t) ->
       if not (List.exists (fun s -> s.a_name = a.name) specs) then
         note (Printf.sprintf "%s: unknown argument %S" what a.name))
    atoms;
  match !problem with Some msg -> Error msg | None -> Ok ()

let find_method i name =
  List.find_opt (fun m -> m.m_name = name) i.i_methods

let validate_call i (xrl : Xrl.t) =
  if xrl.interface <> i.i_name then
    Error
      (Printf.sprintf "interface mismatch: %s is not %s" xrl.interface i.i_name)
  else if xrl.version <> i.i_version then
    Error (Printf.sprintf "version mismatch: %s" xrl.version)
  else
    match find_method i xrl.method_name with
    | None ->
      Error (Printf.sprintf "%s has no method %S" i.i_name xrl.method_name)
    | Some m ->
      check_args
        ~what:(Printf.sprintf "%s/%s" i.i_name m.m_name)
        m.m_args xrl.args

let wrap_handler i ~method_name handler =
  match find_method i method_name with
  | None ->
    invalid_arg
      (Printf.sprintf "Xrl_idl.wrap_handler: %s has no method %S" i.i_name
         method_name)
  | Some m ->
    fun args reply ->
      let what = Printf.sprintf "%s/%s" i.i_name m.m_name in
      (match check_args ~what m.m_args args with
       | Error msg -> reply (Xrl_error.Bad_args msg) []
       | Ok () ->
         handler args (fun err ret ->
             if Xrl_error.is_ok err then
               match check_args ~what:(what ^ " (reply)") m.m_returns ret with
               | Ok () -> reply err ret
               | Error msg ->
                 (* The handler violated its own return contract. *)
                 reply (Xrl_error.Internal_error msg) []
             else reply err ret))

let add_checked_handler router i ~method_name handler =
  Xrl_router.add_handler router ~interface:i.i_name ~version:i.i_version
    ~method_name
    (wrap_handler i ~method_name handler)

let to_string i =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "interface %s/%s {\n" i.i_name i.i_version);
  List.iter
    (fun m ->
       let render specs =
         String.concat " & "
           (List.map
              (fun s ->
                 Printf.sprintf "%s%s:%s" s.a_name
                   (if s.a_optional then "?" else "")
                   (type_name s.a_type))
              specs)
       in
       Buffer.add_string buf
         (Printf.sprintf "    %s%s%s\n" m.m_name
            (match m.m_args with [] -> "" | args -> "?" ^ render args)
            (match m.m_returns with
             | [] -> ""
             | rets -> " -> " ^ render rets)))
    i.i_methods;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- builtin interface specs -------------------------------------------- *)

let fea_interface =
  iface ~name:"fea"
    [ (* Route runs, one route or many per call, packed with
         Route_pack. The u32 return is the number of routes applied. *)
      meth "add_routes4" ~args:[ arg "routes" A_binary ]
        ~returns:[ arg "count" A_u32 ];
      meth "delete_routes4" ~args:[ arg "routes" A_binary ]
        ~returns:[ arg "count" A_u32 ];
      meth "lookup_route4" ~args:[ arg "addr" A_ipv4 ]
        ~returns:[ arg "net" A_ipv4net; arg "nexthop" A_ipv4; arg "ifname" A_txt ];
      meth "get_fib_size" ~returns:[ arg "size" A_u32 ];
      meth "get_interfaces" ~returns:[ arg "interfaces" A_list ] ]

let fea_udp_interface =
  iface ~name:"fea_udp"
    [ meth "udp_open"
        ~args:[ arg "client_target" A_txt; arg "addr" A_ipv4; arg "port" A_u32 ]
        ~returns:[ arg "sockid" A_u32 ];
      meth "udp_send"
        ~args:
          [ arg "sockid" A_u32; arg "dst" A_ipv4; arg "dport" A_u32;
            arg "payload" A_binary ];
      meth "udp_close" ~args:[ arg "sockid" A_u32 ] ]

let fea_client_interface =
  iface ~name:"fea_client"
    [ meth "recv"
        ~args:
          [ arg "sockid" A_u32; arg "src" A_ipv4; arg "sport" A_u32;
            arg "payload" A_binary ] ]

let rib_interface =
  iface ~name:"rib"
    [ meth "add_route"
        ~args:
          [ arg "protocol" A_txt; arg "net" A_ipv4net; arg "nexthop" A_ipv4;
            arg ~optional:true "metric" A_u32 ];
      meth "delete_route" ~args:[ arg "protocol" A_txt; arg "net" A_ipv4net ];
      (* Route runs, packed with Route_pack; [urgent] states the
         run's lane. The u32 return is the number of routes applied. *)
      meth "add_routes4" ~args:[ arg "urgent" A_bool; arg "routes" A_binary ]
        ~returns:[ arg "count" A_u32 ];
      meth "delete_routes4"
        ~args:
          [ arg "urgent" A_bool; arg "protocol" A_txt; arg "routes" A_binary ]
        ~returns:[ arg "count" A_u32 ];
      meth "lookup_route_by_dest" ~args:[ arg "addr" A_ipv4 ]
        ~returns:
          [ arg "net" A_ipv4net; arg "nexthop" A_ipv4; arg "metric" A_u32;
            arg "admin_distance" A_u32; arg "protocol" A_txt ];
      meth "register_interest" ~args:[ arg "client" A_txt; arg "addr" A_ipv4 ]
        ~returns:
          [ arg "resolves" A_bool; arg "valid" A_ipv4net;
            arg ~optional:true "net" A_ipv4net;
            arg ~optional:true "nexthop" A_ipv4;
            arg ~optional:true "metric" A_u32;
            arg ~optional:true "protocol" A_txt ];
      meth "deregister_interest" ~args:[ arg "client" A_txt; arg "valid" A_ipv4net ];
      meth "redist_subscribe" ~args:[ arg "target" A_txt; arg "policy" A_txt ];
      meth "redist_unsubscribe" ~args:[ arg "target" A_txt ];
      meth "get_route_count" ~returns:[ arg "count" A_u32 ] ]

let rib_client_interface =
  iface ~name:"rib_client"
    [ meth "route_info_invalid" ~args:[ arg "valid" A_ipv4net ] ]

let redist_client_interface =
  iface ~name:"redist_client"
    [ meth "add_route"
        ~args:
          [ arg "protocol" A_txt; arg "net" A_ipv4net; arg "nexthop" A_ipv4;
            arg "metric" A_u32; arg "tag" A_u32 ];
      meth "delete_route"
        ~args:
          [ arg "protocol" A_txt; arg "net" A_ipv4net; arg "nexthop" A_ipv4;
            arg "metric" A_u32; arg "tag" A_u32 ] ]

let bgp_interface =
  iface ~name:"bgp"
    [ meth "originate_route" ~args:[ arg "net" A_ipv4net ];
      meth "withdraw_route" ~args:[ arg "net" A_ipv4net ];
      meth "get_route_count" ~returns:[ arg "count" A_u32 ];
      meth "get_peer_state" ~args:[ arg "peer" A_ipv4 ]
        ~returns:[ arg "state" A_txt ];
      meth "list_peers" ~returns:[ arg "peers" A_list ] ]

let rip_interface =
  iface ~name:"rip"
    [ meth "add_static_route"
        ~args:[ arg "net" A_ipv4net; arg ~optional:true "metric" A_u32 ];
      meth "get_route_count" ~returns:[ arg "count" A_u32 ] ]

let ospf_interface =
  iface ~name:"ospf"
    [ meth "get_lsdb_size" ~returns:[ arg "size" A_u32 ];
      meth "get_route_count" ~returns:[ arg "count" A_u32 ];
      meth "add_stub"
        ~args:[ arg "net" A_ipv4net; arg ~optional:true "cost" A_u32 ] ]

let telemetry_interface =
  (* Quantiles and other float-valued fields travel as txt atoms:
     the XRL atom vocabulary has no float type. *)
  iface ~name:"telemetry" ~version:"0.1"
    [ meth "list" ~returns:[ arg "metrics" A_list ];
      meth "get" ~args:[ arg "name" A_txt ]
        ~returns:
          [ arg "type" A_txt;
            arg ~optional:true "value" A_txt;
            arg ~optional:true "count" A_u32;
            arg ~optional:true "sum" A_txt;
            arg ~optional:true "max" A_txt;
            arg ~optional:true "p50" A_txt;
            arg ~optional:true "p90" A_txt;
            arg ~optional:true "p99" A_txt ];
      meth "spans" ~returns:[ arg "spans" A_list ];
      meth "snapshot" ~returns:[ arg "json" A_txt ];
      meth "reset" ]

let dataplane_interface =
  (* Element lists and drop tables travel as txt atoms of the form
     "field|field|..." — same convention as telemetry/0.1's lists. *)
  iface ~name:"dataplane" ~version:"0.1"
    [ meth "install_graph" ~args:[ arg "config" A_txt ]
        ~returns:[ arg "elements" A_u32 ];
      meth "get_graph" ~returns:[ arg "config" A_txt ];
      meth "list_elements" ~returns:[ arg "elements" A_list ];
      meth "get_counters" ~args:[ arg "name" A_txt ]
        ~returns:
          [ arg "klass" A_txt; arg "rx" A_u32; arg "tx" A_u32;
            arg "drops" A_list ];
      meth "insert_element"
        ~args:
          [ arg "name" A_txt; arg "klass" A_txt;
            arg ~optional:true "config" A_txt; arg "after" A_txt;
            arg ~optional:true "port" A_u32 ];
      meth "remove_element" ~args:[ arg "name" A_txt ] ]

let builtin_interfaces =
  [ fea_interface; fea_udp_interface; fea_client_interface; rib_interface;
    rib_client_interface; redist_client_interface; bgp_interface;
    rip_interface; ospf_interface; telemetry_interface;
    dataplane_interface ]

let find_interface name =
  List.find_opt (fun i -> i.i_name = name) builtin_interfaces
