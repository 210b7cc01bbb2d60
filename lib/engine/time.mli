(** Simulated time, in integer nanoseconds.

    All simulation components share this representation.  Using [int64]
    nanoseconds (rather than float seconds) keeps event ordering exact and
    simulations bit-for-bit reproducible. *)

type t = int64

val zero : t
val infinity : t

(** {1 Constructors} *)

val ns : int -> t
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

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val diff : t -> t -> t

(** [scale t x] multiplies a duration by a float factor. *)
val scale : t -> float -> t

val max : t -> t -> t
val min : t -> t -> t
val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val equal : t -> t -> bool

(** Pretty-printer choosing a human unit (ns/us/ms/s). *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
