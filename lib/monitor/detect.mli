(** Statistical detectors feeding the alert rules: EWMA z-score anomaly
    scoring and the load-knee predicate. *)

(** Exponentially-weighted mean/variance tracker.  Each observation is
    scored against the {e pre-update} baseline so a spike is compared to
    what came before it, not to itself. *)
module Ewma : sig
  type t

  (** Smoothing [alpha = 0.3]; z-scores are 0 for the first 5
      observations.  Default [sigma_floor = 1.0] (score units). *)
  val create : ?sigma_floor:float -> unit -> t

  val n : t -> int
  val mean : t -> float

  (** Standard deviation estimate, floored at [sigma_floor]. *)
  val sigma : t -> float

  val warmed_up : t -> bool

  (** [observe t x] returns the z-score of [x] against the current
      baseline (0 during warmup), then folds [x] into the baseline. *)
  val observe : t -> float -> float
end

(** [knee_crossed ~rate ~knee_rate ~p95_us ~knee_latency_us] is true
    when a tenant's operating point is past the device's hockey-stick
    knee: windowed weighted-token [rate >= knee_rate] {e and} windowed
    [p95_us > knee_latency_us].  Both legs are required — high rate at
    good latency is healthy, high latency at low rate is a different
    pathology.
    @raise Invalid_argument on non-positive [knee_rate]. *)
val knee_crossed :
  rate:float -> knee_rate:float -> p95_us:float -> knee_latency_us:float -> bool
