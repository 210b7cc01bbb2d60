(** Load generation against a ReFlex client connection — the mutilate
    methodology of the paper (§5.1): open-loop Poisson load from many
    threads for throughput, plus a separate low-rate/queue-depth-1 client
    for unloaded latency probes. *)

open Reflex_engine
open Reflex_stats

type t

(** [open_loop sim ~client ~rate ~read_ratio ~bytes ~until ()] issues
    open-loop arrivals at [rate]/sec until [until].  LBAs are uniform in
    [0, lba_hi).  [pacing] selects the arrival process: [`Poisson]
    (default) for memoryless load, or [`Cbr] for the evenly paced
    generation that coordinated load generators like mutilate produce —
    pacing matters for LC tenants driven at exactly their reservation,
    where Poisson bursts exceed the token-bucket burst allowance. *)
val open_loop :
  Sim.t ->
  client:Client_lib.t ->
  ?pacing:[ `Poisson | `Cbr ] ->
  ?mix:[ `Random | `Deterministic ] ->
  rate:float ->
  read_ratio:float ->
  bytes:int ->
  until:Time.t ->
  ?lba_hi:int64 ->
  ?seed:int64 ->
  unit ->
  t

(** [closed_loop sim ~client ~depth ...] keeps [depth] requests in flight
    (reissuing on completion, after an optional [think] delay) until
    [until].  [depth = 1] with a think time is the unloaded-latency
    prober. *)
val closed_loop :
  Sim.t ->
  client:Client_lib.t ->
  depth:int ->
  ?think:Time.t ->
  ?mix:[ `Random | `Deterministic ] ->
  read_ratio:float ->
  bytes:int ->
  until:Time.t ->
  ?lba_hi:int64 ->
  ?seed:int64 ->
  unit ->
  t

(** Discard everything recorded so far; only requests issued from now on
    count.  Call after warmup. *)
val mark_measurement_start : t -> unit

(** Freeze the measurement window at the current instant: completions
    after this moment no longer count toward {!achieved_iops} (they still
    land in the latency histograms).  Call when offered load stops, so
    that draining the simulation does not dilute the rate. *)
val freeze_window : t -> unit

(** {1 Results} *)

val reads : t -> Hdr_histogram.t
val issued : t -> int
val completed : t -> int
val errors : t -> int

(** Completions with status [Timed_out] (retry budget exhausted) — a
    subset of {!errors}. *)
val timeout_errors : t -> int

(** {1 Fault injection}

    Misbehaving-tenant fault (lib/faults): scale an open-loop generator's
    arrival rate by [factor] (gaps shrink by [1/factor]).  [1.0] restores
    the declared rate; closed-loop generators ignore it.
    @raise Invalid_argument if [factor <= 0]. *)
val set_burst_factor : t -> float -> unit

(** Completed IOPS over the measured window (since the last
    {!mark_measurement_start}, or creation). *)
val achieved_iops : t -> float

(** Convenience percentile/mean accessors in microseconds over reads. *)
val p95_read_us : t -> float

val mean_read_us : t -> float
val p95_write_us : t -> float
val mean_write_us : t -> float
