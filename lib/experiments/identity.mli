(** The one acceptance mechanism: the chaos, monitor, obs and rack
    scenarios and the paper figures return their acceptance checks as a
    {!check} list; [reflex_sim] prints them with {!lines} and exits with
    {!exit_code}, and the tests iterate them. *)

(** One named predicate outcome. *)
type check = { name : string; ok : bool }

val check : string -> bool -> check

(** [within claim ~paper ~sim ~tol] is a paper claim, passing when
    [|sim - paper| / paper <= tol] ([tol] a fraction).  Its name is
    [claim] followed by the paper value, the simulated value, the
    tolerance and the error. *)
val within : string -> paper:float -> sim:float -> tol:float -> check

val all_ok : check list -> bool

(** [0] when every check passed, [1] otherwise. *)
val exit_code : check list -> int

(** One ["  <name padded to 44> PASS|FAIL"] line per check. *)
val lines : check list -> string
