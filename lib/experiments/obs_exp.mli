(** Observability acceptance scenario: the chaos world ({!Chaos.load}
    with {!Chaos.retry}, {!Chaos.arm_faults}) with the full
    [lib/obs] stack armed — always-on flight recorder, alert-triggered
    forensic dumps, causal retry links, continuous cost profiler.

    The deterministic render covers the fault plan, monitor report,
    retry span trees and the digest of the first dump's JSON debrief;
    profiler output (host wall time) is exposed only through
    {!profile_report}.  {!debrief} asserts the dump is byte-identical
    across a same-seed rerun and serial vs [--jobs 2], and that a
    disarmed recorder perturbs nothing. *)

open Reflex_faults
open Reflex_monitor

type result = {
  monitor : Monitor.t;
  telemetry : Reflex_telemetry.Telemetry.t;
  profiler : Reflex_obs.Profiler.t;
  plan : Fault_plan.t;
  retries : int;  (** summed client re-issues *)
  digest : string;  (** server counters + per-generator stats *)
}

(** [flight] picks the recorder wiring: [`Armed] (default) a live ring,
    [`Inert] a created-but-disabled one, [`None] the shared disabled
    instance.  [profile] arms the cost profiler (default off — its
    clock reads are host-wall-time and pure overhead when unused). *)
val run :
  ?mode:Common.mode ->
  ?seed:int64 ->
  ?flight:[ `Armed | `Inert | `None ] ->
  ?profile:bool ->
  unit ->
  result

(** Alert-triggered dumps of the run, firing order. *)
val dumps : result -> Monitor.flight_dump list

(** JSON debrief / Chrome trace of the first dump, if any fired. *)
val first_debrief : result -> string option

val first_chrome : result -> string option

(** {1 Acceptance checks} *)

val dump_captured : result -> bool
val dump_names_alert : result -> bool
val dump_names_fault : result -> bool
val links_recorded : result -> bool

(** The predicates above as the render's PASS/FAIL lines. *)
val checks : result -> Identity.check list

(** Deterministic render (never includes profiler numbers). *)
val render_result : result -> string

(** Render plus the {!Identity.verify} checks over render and dump, the
    disarmed-recorder identity checks, and an [OBS OK]/[OBS FAILED]
    verdict line. *)
val debrief : ?mode:Common.mode -> ?seed:int64 -> unit -> Identity.report

(** Host-wall-time profiler table ({!Reflex_obs.Profiler.report}) —
    print separately, never fold into a byte-identity-checked output. *)
val profile_report : result -> string
