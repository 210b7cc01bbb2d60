(** Resilience acceptance scenario: the multi-tenant trace setup run
    under the scripted fault plan ({!Reflex_faults.Fault_plan.scripted}),
    with client retries on the LC tenants and the injector's degradation
    reaction armed.  The timeline is reported as 500ms p95 buckets so
    latency visibly climbs inside fault windows and recovers outside
    them.

    This module owns the one chaos world: the LC specs, the timeline,
    the retry policy and the fault arming below are what {!Monitor_exp}
    and {!Obs_exp} build on too. *)

open Reflex_engine
open Reflex_telemetry
open Reflex_client
open Reflex_faults

(** {1 The chaos world} *)

(** Timeline compression: 0.1 in Quick mode, 1.0 in Full. *)
val scale_of : Common.mode -> float

(** The 10s timeline, scaled. *)
val timeline : float -> Time.t

(** The LC clients' retry policy: 20ms per-attempt deadline, at most 2
    re-issues, 1ms×4 jittered backoff capped at 20ms. *)
val retry : Retry.policy

(** {!Common.mixed_load} with the chaos LC specs (500us/150K and
    1000us/75K reservations offered 20K and 10K IOPS) and depth-32 BE
    floods, every generator running to the end of the timeline. *)
val load :
  ?retry:Retry.policy ->
  Common.reflex_world ->
  seed:int64 ->
  scale:float ->
  Common.load list * Common.load list

(** Arm the scripted fault plan (scaled) over the world and the
    generators of [loads], injector seed [seed + 7].  Call it after the
    last generator is created. *)
val arm_faults :
  Common.reflex_world -> seed:int64 -> scale:float -> Common.load list -> Fault_plan.t * Injector.t

(** {1 The scenario} *)

type bucket_row = {
  cb_start_ms : float;
  cb_faults : string;  (** labels of plan windows overlapping the bucket; "-" when none *)
  cb_clean : bool;
      (** no fault window (plus one bucket of settle padding after
          recovery) overlaps — the buckets held against the SLO *)
  cb_lc1_p95_us : float;  (** NaN when the bucket saw no read completions *)
  cb_lc2_p95_us : float;
  cb_be_kiops : float;
}

type result = {
  telemetry : Telemetry.t;
  plan : Fault_plan.t;
  rows : bucket_row list;
  lc1_slo_us : float;
  lc2_slo_us : float;
  injected : int;
  recovered : int;
  retries : int;  (** re-issued attempts across LC clients *)
  timeouts : int;  (** per-attempt deadline expiries *)
  timeout_errors : int;  (** Timed_out completions (retry budget exhausted) *)
  lc_issued : int;
  retry_policy : Retry.policy;
}

(** Quick mode compresses the 10s timeline (and the fault plan) by 10x. *)
val run : ?mode:Common.mode -> ?seed:int64 -> unit -> result

(** Plan, bucket table, summary and fault-window report as one string —
    the unit of byte-comparison for determinism checks. *)
val render_result : result -> string

val render : ?mode:Common.mode -> ?seed:int64 -> unit -> string

(** The acceptance checks: both LC tenants' worst clean-bucket p95 is
    within their SLO, and retry counts respect the policy's budget (at
    most [max_retries] re-issues and [max_retries + 1] deadline expiries
    per issued op). *)
val checks : result -> Identity.check list
