(** Ring arithmetic shared by every fixed-capacity ring (the flight
    recorder, telemetry's span ring): a write cursor over [capacity]
    slots that wraps around, overwriting the oldest, plus the count of
    records ever written.  The owner keeps its records in its own
    parallel arrays, indexed by the slots this cursor hands out. *)

type t

(** [create name capacity]; raises [Invalid_argument] (naming [name]) when
    [capacity < 1]. *)
val create : string -> int -> t

(** The slot to write next; advances the cursor.  Allocation-free. *)
val advance : t -> int

val capacity : t -> int

(** Records ever written, including overwritten ones. *)
val total : t -> int

(** Records currently retained ([<= capacity]). *)
val length : t -> int

(** Records lost to wraparound. *)
val dropped : t -> int

(** [iter c f] calls [f slot] oldest-first over the retained slots. *)
val iter : t -> (int -> unit) -> unit
