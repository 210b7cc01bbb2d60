(** SRE-style SLO error budgets.

    A latency SLO "fraction [target] of requests complete within the
    bound" grants an error budget of [1 - target]: the fraction of
    requests allowed to violate the bound.  A budget accumulates over
    the whole run; nothing resets it.  The {e burn rate} of a window of
    traffic is how fast the budget is being consumed relative to plan:

    {[ burn = bad_fraction / (1 - target) ]}

    [burn = 1] spends the budget exactly at the sustainable rate;
    [burn = 14] spends it 14 times as fast.  The multi-window rules in
    {!Alerts} compare windowed burn rates (computed from {!Tsdb} delta
    histograms) against such factors. *)

type t

(** @raise Invalid_argument unless [target] is in (0,1). *)
val create : tenant:int -> target:float -> t

(** Pure burn-rate arithmetic over one window's [good]/[bad] counts.
    An empty window ([good +. bad <= 0]) burns 0. *)
val burn_rate_of : target:float -> good:float -> bad:float -> float

(** Accumulate one window of traffic.
    @raise Invalid_argument on negative counts. *)
val record : t -> good:float -> bad:float -> unit

(** Fraction of the budget consumed so far ([>= 1] means exhausted). *)
val consumed : t -> float

(** Cumulative (whole-run) burn rate. *)
val burn_rate : t -> float

val pp : Format.formatter -> t -> unit
