(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the simulation draws from an explicit
    stream so that experiments are reproducible and independent components
    do not perturb each other's randomness. *)

type t

(** [create seed] makes a new independent stream. *)
val create : int64 -> t

(** [split t] derives a new independent stream from [t] (advances [t]). *)
val split : t -> t

(** Raw 64 random bits. *)
val bits64 : t -> int64

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform float in [lo, hi). *)
val float_range : t -> float -> float -> float

(** [int t n] is uniform in [0, n-1]. Requires [n > 0]. *)
val int : t -> int -> int

(** Bernoulli trial with probability [p]. *)
val bool : t -> float -> bool

(** {1 Distributions} *)

(** Exponential with mean [mean]. *)
val exponential : t -> mean:float -> float

(** Standard normal via Box-Muller. *)
val normal : t -> mean:float -> stddev:float -> float

(** Lognormal such that the {e median} of the result is [median] and the
    shape parameter is [sigma] (stddev of the underlying normal). *)
val lognormal : t -> median:float -> sigma:float -> float

(** Fisher-Yates shuffle in place. *)
val shuffle : t -> 'a array -> unit
