(* The closed set of rule identifiers.  Waivers and manifest lines naming
   anything outside this list are themselves findings — a typo in a
   waiver must not silently disable nothing. *)

let determinism = [ "det/random"; "det/clock"; "det/marshal"; "det/hashtbl-order" ]
let domain_safety = [ "dom/toplevel-state" ]
let guards = [ "guard/telemetry" ]
let interface = [ "iface/mli" ]

(* Internal rule-ids attached to problems with the lint inputs themselves
   (unparseable source, malformed waiver or manifest line).  They are not
   waivable and not valid waiver targets. *)
let internal = [ "lint/parse-error"; "lint/bad-waiver"; "lint/manifest" ]

let all = determinism @ domain_safety @ guards @ interface
let is_known id = List.mem id all
let is_internal id = List.mem id internal

(* One-paragraph explanations, printed by [reflex_lint --explain ID]. *)
let describe = function
  | "det/random" ->
    "ambient PRNG use (Random.int & friends without an explicit State.t); the simulator's \
     reproducibility contract requires every random stream to be seeded and threaded \
     explicitly"
  | "det/clock" ->
    "wall-clock read (Unix.gettimeofday / Sys.time / Unix.time) in simulation code; virtual \
     time must come from Sim.now so runs replay bit-identically"
  | "det/marshal" ->
    "Marshal use; its byte output varies across compiler versions and sharing settings, \
     breaking golden-file and cross-version comparisons"
  | "det/hashtbl-order" ->
    "iteration over an unsorted Hashtbl (iter/fold/to_seq without a nearby sort); bucket \
     order depends on insertion history and hash seeding, so dependent output is \
     nondeterministic"
  | "dom/toplevel-state" ->
    "mutable toplevel state (ref/Hashtbl/Buffer/array/Mutex at module level) without a \
     manifest domain_safe entry; shared mutable state needs an explicit ownership story \
     under OCaml 5 domains"
  | "guard/telemetry" ->
    "effectful Telemetry/Monitor call not dominated by an enabled/armed guard in the same \
     function, also when made through a module alias declared in the same file (module T \
     = Telemetry); dataplane code must skip telemetry work when it is switched off"
  | "iface/mli" ->
    "a .ml without a matching .mli and no manifest iface_exempt entry; every module \
     exports a curated interface"
  | "lint/parse-error" -> "the file does not parse; nothing else can be checked"
  | "lint/bad-waiver" ->
    "malformed, unknown-rule or reason-less waiver comment; a typo must not silently waive \
     nothing"
  | "lint/manifest" -> "malformed lint.manifest line"
  | id -> Printf.sprintf "unknown rule-id %S" id
