let src = Logs.Src.create "xorp.finder" ~doc:"camlXORP Finder broker"

module Log = (val Logs.src_log src : Logs.LOG)

type target = {
  class_name : string;
  instance : string;
  addresses : (string * string) list;
  methods : (string, string) Hashtbl.t; (* method_id -> key *)
  mutable enabled : bool;
}

type resolved = { family : string; address : string; keyed_method : string }
type lifetime_event = Birth | Death

type t = {
  rng : Rng.t;
  targets : (string, target) Hashtbl.t; (* instance -> target *)
  classes : (string, target list ref) Hashtbl.t; (* oldest first *)
  watchers :
    (string, (lifetime_event -> string -> unit) ref list ref) Hashtbl.t;
  invalidate_hooks : (string -> unit) list ref;
  acls : (string, (string * string) list) Hashtbl.t;
  (* caller class -> allowed (target class, interface); absence = all *)
  mutable seqno : int;
  mutable resolves : int;
}

let create ?(seed = 0x51DE) () =
  {
    rng = Rng.create seed;
    targets = Hashtbl.create 16;
    classes = Hashtbl.create 16;
    watchers = Hashtbl.create 16;
    invalidate_hooks = ref [];
    acls = Hashtbl.create 4;
    seqno = 0;
    resolves = 0;
  }

let class_list t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.classes cls r;
    r

let notify t cls event instance =
  match Hashtbl.find_opt t.watchers cls with
  | None -> ()
  | Some ws -> List.iter (fun w -> !w event instance) !ws

let invalidate t cls =
  List.iter (fun hook -> hook cls) !(t.invalidate_hooks)

let register_target t ~class_name ?(sole = false) ~addresses () =
  let live = class_list t class_name in
  if sole && !live <> [] then
    Error (Printf.sprintf "class %S already has a live instance" class_name)
  else begin
    t.seqno <- t.seqno + 1;
    let instance = Printf.sprintf "%s-%d" class_name t.seqno in
    let target =
      { class_name; instance; addresses; methods = Hashtbl.create 16;
        enabled = true }
    in
    Hashtbl.replace t.targets instance target;
    live := !live @ [ target ];
    invalidate t class_name;
    notify t class_name Birth instance;
    Log.info (fun m -> m "registered %s" instance);
    Ok target
  end

let unregister_target t target =
  if target.enabled then begin
    target.enabled <- false;
    Hashtbl.remove t.targets target.instance;
    let live = class_list t target.class_name in
    live := List.filter (fun x -> not (x == target)) !live;
    invalidate t target.class_name;
    notify t target.class_name Death target.instance;
    Log.info (fun m -> m "unregistered %s" target.instance)
  end

(* 16 random bytes in lowercase hex ([Digest.to_hex] encodes any 16
   bytes): the same draws, in the same order, as "%02x" per byte. *)
let register_method t target ~method_id =
  let key =
    Digest.to_hex (String.init 16 (fun _ -> Char.chr (Rng.int t.rng 256)))
  in
  Hashtbl.replace target.methods method_id key;
  key

let instance_name target = target.instance
let class_of_target target = target.class_name

let find_target t name =
  (* A specific instance name wins; otherwise the oldest live instance
     of the class. *)
  match Hashtbl.find_opt t.targets name with
  | Some target when target.enabled -> Some target
  | _ ->
    (match Hashtbl.find_opt t.classes name with
     | Some { contents = target :: _ } -> Some target
     | _ -> None)

(* A caller may be an instance name ("bgp-3"): its class is the prefix
   before the trailing "-<seq>" that register_target appended. *)
let class_of_caller t caller =
  match Hashtbl.find_opt t.targets caller with
  | Some target -> target.class_name
  | None ->
    (match String.rindex_opt caller '-' with
     | Some i when int_of_string_opt
                     (String.sub caller (i + 1) (String.length caller - i - 1))
                   <> None ->
       String.sub caller 0 i
     | _ -> caller)

let is_allowed t ~caller ~target_class ~interface =
  match Hashtbl.find_opt t.acls (class_of_caller t caller) with
  | None -> true
  | Some allowed ->
    List.exists
      (fun (cls, ifc) -> cls = target_class && ifc = interface)
      allowed

let restrict t ~class_name ~allow =
  Hashtbl.replace t.acls class_name allow;
  invalidate t class_name

let unrestrict t ~class_name =
  Hashtbl.remove t.acls class_name;
  invalidate t class_name

let resolve t ?(family_pref = []) ?caller (xrl : Xrl.t) =
  t.resolves <- t.resolves + 1;
  match find_target t xrl.target with
  | None -> Error (Xrl_error.Resolve_failed ("no such target " ^ xrl.target))
  | Some target when
      (match caller with
       | Some caller ->
         not
           (is_allowed t ~caller ~target_class:target.class_name
              ~interface:xrl.interface)
       | None -> false) ->
    Error
      (Xrl_error.Resolve_failed
         (Printf.sprintf "%s is not permitted to call %s/%s"
            (Option.value caller ~default:"?")
            target.class_name xrl.interface))
  | Some target ->
    let mid = Xrl.method_id xrl in
    (match Hashtbl.find_opt target.methods mid with
     | None ->
       Error
         (Xrl_error.No_such_method
            (Printf.sprintf "%s has no method %s" target.instance mid))
     | Some key ->
       let pick =
         let rec first_of = function
           | [] -> None
           | fam :: rest ->
             (match List.assoc_opt fam target.addresses with
              | Some addr -> Some (fam, addr)
              | None -> first_of rest)
         in
         match first_of family_pref with
         | Some fa -> Some fa
         | None ->
           (match target.addresses with fa :: _ -> Some fa | [] -> None)
       in
       (match pick with
        | None ->
          Error
            (Xrl_error.Resolve_failed
               (target.instance ^ " registered no transport addresses"))
        | Some (family, address) ->
          Ok
            { family; address;
              keyed_method = xrl.method_name ^ "@" ^ key }))

let resolve_count t = t.resolves

let watch_class t cls on_event =
  let ws =
    match Hashtbl.find_opt t.watchers cls with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.watchers cls r;
      r
  in
  (* A fresh box per watch: the remover takes out exactly this one, and
     silences it for the rest of a notification already under way. *)
  let w = ref on_event in
  ws := !ws @ [ w ];
  (* Synthetic births for already-live instances. *)
  List.iter (fun target -> on_event Birth target.instance) !(class_list t cls);
  fun () ->
    w := (fun _ _ -> ());
    ws := List.filter (fun x -> x != w) !ws

let watcher_count t =
  Hashtbl.fold (fun _ ws n -> n + List.length !ws) t.watchers 0

let on_invalidate t hook =
  t.invalidate_hooks := !(t.invalidate_hooks) @ [ hook ];
  (* The remover filters by physical equality, so removing one hook
     never disturbs another router's registration. Idempotent. *)
  fun () ->
    t.invalidate_hooks := List.filter (fun h -> h != hook) !(t.invalidate_hooks)

let invalidate_hook_count t = List.length !(t.invalidate_hooks)

(* [find], not [find_opt]: per-route callers must not allocate. *)
let is_live t cls =
  match Hashtbl.find t.classes cls with
  | live -> !live <> []
  | exception Not_found -> false

let live_instances t cls =
  List.map (fun target -> target.instance) !(class_list t cls)

let live_addresses t cls =
  List.concat_map (fun target -> target.addresses) !(class_list t cls)
