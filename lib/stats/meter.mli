(** Event-rate meter over simulated time.

    Counts marks and reports rates over the whole run or since the last
    checkpoint — used for IOPS, tokens/sec and bandwidth reporting. *)

open Reflex_engine

type t

val create : Sim.t -> t

(** [mark t ?n ()] counts [n] (default 1) events now. *)
val mark : t -> ?n:int -> unit -> unit

val count : t -> float

(** Events per second since creation. *)
val rate : t -> float

(** Events per second since the previous [checkpoint] (or creation), then
    restarts the window. *)
val checkpoint : t -> float

val reset : t -> unit
