(** The Finder: broker for XRL requests (paper §6.2).

    Components register a component class (e.g. ["bgp"]), a unique
    instance name, the transport addresses they listen on, and their
    methods. The Finder resolves generic XRLs into resolved XRLs that
    name a concrete protocol family, address, and {e keyed} method name
    — a 16-byte random key is embedded in every registered method name
    (§7), so a caller cannot bypass Finder resolution and forge calls.

    The Finder also provides the component-lifetime notification
    service: watchers are told when instances of a class are born or
    die, which is how components detect failures and restarts. *)

type t

type target
(** A registered component instance. *)

type resolved = {
  family : string;       (** protocol family, e.g. ["stcp"] *)
  address : string;      (** family-specific address *)
  keyed_method : string; (** [method@key] *)
}

type lifetime_event = Birth | Death

val create : ?seed:int -> unit -> t
(** [seed] makes method keys deterministic (tests only). *)

val register_target :
  t -> class_name:string -> ?sole:bool ->
  addresses:(string * string) list -> unit -> (target, string) result
(** [register_target t ~class_name ~addresses ()] creates an instance
    of [class_name] reachable at [addresses] (an ordered
    [(family, address)] preference list). With [~sole:true] the
    registration fails if the class already has a live instance.
    Watchers of the class observe a {!Birth}. *)

val unregister_target : t -> target -> unit
(** Idempotent. Watchers observe a {!Death}; resolution caches are
    invalidated. *)

val register_method : t -> target -> method_id:string -> string
(** [register_method t target ~method_id] registers
    ["interface/version/method"] and returns the key the receiving
    component must enforce on dispatch. *)

val instance_name : target -> string
(** The unique generation-suffixed name, e.g. ["fea-3"]. *)

val class_of_target : target -> string
(** The component class the target registered as, e.g. ["fea"]. *)

val resolve :
  t -> ?family_pref:string list -> ?caller:string -> Xrl.t ->
  (resolved, Xrl_error.t) result
(** Resolve a generic XRL. The target may name a class (any live
    instance is chosen, oldest first) or a specific instance.
    [family_pref] orders transport choice; families the target does not
    support are skipped. [caller] (a component class or instance name)
    is checked against any access-control restriction installed with
    {!restrict}. *)

(** {1 Access control (the §7 security plan)}

    "The Finder is configured with a set of XRLs that each process is
    allowed to call, and a set of targets that each process is allowed
    to communicate with. Only these permitted XRLs will be resolved;
    the random XRL key prevents bypassing the Finder."

    Restrictions are per caller class: once {!restrict} is called for a
    class, components of that class can only resolve the listed
    (target class, interface) pairs. Unrestricted classes may resolve
    anything (the paper's current state). *)

val restrict :
  t -> class_name:string -> allow:(string * string) list -> unit
(** [restrict t ~class_name ~allow] limits components of [class_name]
    to the given (target class, interface) pairs. Replaces any previous
    restriction; resolution caches are invalidated. *)

val unrestrict : t -> class_name:string -> unit
(** Drop any restriction on [class_name]; its components may resolve
    anything again. *)

val is_allowed :
  t -> caller:string -> target_class:string -> interface:string -> bool
(** Would {!resolve} permit [caller] to reach
    [target_class]/[interface]? True when the caller's class is
    unrestricted. *)

val resolve_count : t -> int
(** Number of [resolve] calls served (benchmarks). *)

val watch_class :
  t -> string -> (lifetime_event -> string -> unit) -> unit -> unit
(** [watch_class t cls cb]: [cb event instance] fires on every birth or
    death of an instance of [cls]. Registering a watch on a class that
    already has live instances fires a synthetic [Birth] per instance,
    so watchers need no separate bootstrap query. Returns an idempotent
    remover; until it runs, the Finder keeps [cb] and all it reaches. *)

val watcher_count : t -> int
(** Currently registered lifetime watchers (leak tests). *)

val on_invalidate : t -> (string -> unit) -> unit -> unit
(** Hook called with a class name whenever resolutions for that class
    become stale; {!Xrl_router} uses this to drop its caches. Returns
    a remover: call it to unregister the hook (idempotent) — a router
    that shuts down must remove its hook or the Finder keeps the dead
    router (and its caches) alive forever. *)

val invalidate_hook_count : t -> int
(** Currently registered invalidation hooks (leak tests). *)

val is_live : t -> string -> bool
(** Does the class have a live instance? Allocates nothing. *)

val live_instances : t -> string -> string list
(** Instance names currently registered for a class. *)

val live_addresses : t -> string -> (string * string) list
(** [(family, address)] pairs of every live instance of a class; used
    to tell stale transport addresses from live ones after a death. *)
