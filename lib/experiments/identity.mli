(** Acceptance checks and the determinism debrief shared by the
    chaos, monitor, obs and rack scenarios.

    Each scenario exposes its acceptance predicates as a {!check} list;
    its [debrief] is its render followed by the identity checks from
    {!verify}.  [reflex_sim] exits with {!exit_code} of every check it
    ran. *)

(** One named predicate outcome. *)
type check = { name : string; ok : bool }

(** A rendered debrief and every check behind it (acceptance first,
    then identity). *)
type report = { text : string; checks : check list }

val check : string -> bool -> check
val all_ok : check list -> bool

(** [0] when every check passed, [1] otherwise. *)
val exit_code : check list -> int

(** One ["  <name padded to 44> PASS|FAIL"] line per check. *)
val lines : check list -> string

(** [verify ~base render] runs [render] once more serially and twice
    concurrently under {!Runner.map}[ ~jobs:2], and checks each output
    is byte-identical to [base]: the same-seed rerun check, then the
    two-domain check. *)
val verify : base:string -> (unit -> string) -> check list

(** [debrief ~text ~acceptance identity] appends a [determinism:] block
    listing [identity] to [text]. *)
val debrief : text:string -> acceptance:check list -> check list -> report
