(** Simulated time, in integer nanoseconds.

    All simulation components share this representation.  Using [int64]
    nanoseconds (rather than float seconds) keeps event ordering exact and
    simulations bit-for-bit reproducible. *)

type t = int64

val zero : t
val infinity : t

(** {1 Constructors} *)

external ns : int -> t = "%int64_of_int"
val us : int -> t
val ms : int -> t
val sec : int -> t

(** [of_float_us x] converts a (possibly fractional) number of microseconds,
    rounding to the nearest nanosecond. *)
val of_float_us : float -> t

val of_float_ns : float -> t

(** {1 Conversions} *)

val to_float_us : t -> float
val to_float_ms : t -> float
val to_float_sec : t -> float
val to_float_ns : t -> float

(** {1 Arithmetic}

    The operations below are compiler primitives, so every caller
    inlines them (also across [-opaque] module boundaries) and an
    intermediate sum or comparison allocates no box. *)

external add : t -> t -> t = "%int64_add"
external sub : t -> t -> t = "%int64_sub"
external diff : t -> t -> t = "%int64_sub"

(** [scale t x] multiplies a duration by a float factor. *)
val scale : t -> float -> t

val max : t -> t -> t
val min : t -> t -> t
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external equal : t -> t -> bool = "%equal"

(** Pretty-printer choosing a human unit (ns/us/ms/s). *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
