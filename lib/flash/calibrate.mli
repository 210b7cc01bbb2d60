(** Device characterization and cost-model calibration (paper §3.2.1).

    Replicates the authors' procedure: measure tail latency versus
    throughput on the (simulated) local device for several read/write
    ratios and request sizes, then fit the request cost model
    C(I/O type, r) and the maximum sustainable token rate for a given
    tail-latency SLO. *)

type point = {
  offered_iops : float;
  achieved_iops : float;
  achieved_read_iops : float;
  achieved_write_iops : float;
  read_ratio : float;
  mean_read_us : float;
  p95_read_us : float;
  mean_write_us : float;
  p95_write_us : float;
}

type config = {
  duration : Reflex_engine.Time.t;  (** measured interval per point *)
  warmup : Reflex_engine.Time.t;  (** discarded lead-in per point *)
  seed : int64;
}

val default_config : config

(** One open-loop (Poisson) measurement at the given offered rate, issued
    directly to the local device — no network. *)
val measure :
  ?config:config -> Device_profile.t -> read_ratio:float -> bytes:int -> rate:float -> point

(** Max raw IOPS such that p95 read latency stays under the target, found
    by binary search between 0 and the profile's nominal ceiling. *)
val max_rate_for_slo :
  ?config:config ->
  Device_profile.t ->
  read_ratio:float ->
  bytes:int ->
  p95_target_us:float ->
  float

(** Calibrated cost model parameters recovered from measurements. *)
type fitted = {
  write_cost : float;  (** C(write, r<100%) in tokens *)
  ro_read_cost : float;  (** C(read, r=100%) in tokens *)
  token_rate : float;  (** tokens/s sustainable at the target p95 *)
  fit_r2 : float;
}

(** [fit_cost_model profile ~p95_target_us] measures the SLO-constrained
    throughput at several read ratios and solves for the cost model by
    least squares (see DESIGN.md for the linearization). *)
val fit_cost_model :
  ?config:config -> ?read_ratios:float list -> Device_profile.t -> p95_target_us:float -> fitted

(** Tokens/sec the device sustains at the given tail-latency SLO — what
    the ReFlex control plane uses to size token generation.  Measured at a
    reference mixed ratio (90% reads). *)
val max_token_rate : ?config:config -> Device_profile.t -> p95_target_us:float -> float
