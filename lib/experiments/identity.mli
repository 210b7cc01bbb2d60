(** Acceptance checks shared by the chaos, monitor, obs and rack
    scenarios.

    Each scenario exposes its acceptance predicates as a {!check} list;
    [reflex_sim] exits with {!exit_code} of that list. *)

(** One named predicate outcome. *)
type check = { name : string; ok : bool }

val check : string -> bool -> check
val all_ok : check list -> bool

(** [0] when every check passed, [1] otherwise. *)
val exit_code : check list -> int

(** One ["  <name padded to 44> PASS|FAIL"] line per check. *)
val lines : check list -> string
