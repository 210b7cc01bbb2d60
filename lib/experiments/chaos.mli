(** Resilience acceptance scenario: the multi-tenant trace setup run
    under the scripted fault plan ({!Reflex_faults.Fault_plan.scripted}),
    with client retries on the LC tenants and the injector's degradation
    reaction armed.  The timeline is reported as 500ms p95 buckets so
    latency visibly climbs inside fault windows and recovers outside
    them; {!debrief} additionally checks byte-identical determinism
    (see {!Identity.verify}). *)

open Reflex_telemetry
open Reflex_client
open Reflex_faults

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

val to_table : result -> Reflex_stats.Table.t

(** Plan, bucket table, summary and fault-window report as one string —
    the unit of byte-comparison for determinism checks. *)
val render_result : result -> string

val render : ?mode:Common.mode -> ?seed:int64 -> unit -> string

(** The acceptance checks: both LC tenants' worst clean-bucket p95 is
    within their SLO, and retry counts respect the policy's budget (at
    most [max_retries] re-issues and [max_retries + 1] deadline expiries
    per issued op). *)
val checks : result -> Identity.check list

(** {!render} followed by the {!Identity.verify} checks. *)
val debrief : ?mode:Common.mode -> ?seed:int64 -> unit -> Identity.report
