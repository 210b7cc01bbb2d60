(** Observability acceptance scenario: the chaos world ({!Chaos.load}
    with {!Chaos.retry}, {!Chaos.arm_faults}) with the full
    [lib/obs] stack armed — always-on flight recorder, alert-triggered
    forensic dumps, causal retry links, continuous cost profiler.

    The deterministic render covers the fault plan, monitor report,
    retry span trees and the digest of the first dump's JSON debrief;
    profiler output (host minor words, which move with the build
    profile) is exposed only through {!profile_report}. *)

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

(** [flight] (default true) attaches a live recorder ring; [false]
    leaves the shared disabled instance.  [profile] arms the cost
    profiler (default off — its word reads are pure overhead when
    unused). *)
val run :
  ?mode:Common.mode ->
  ?seed:int64 ->
  ?flight:bool ->
  ?profile:bool ->
  unit ->
  result

(** Alert-triggered dumps of the run, firing order. *)
val dumps : result -> Monitor.flight_dump list

(** JSON debrief / Chrome trace of the first dump, if any fired. *)
val first_debrief : result -> string option

val first_chrome : result -> string option

(** The acceptance checks as the render's PASS/FAIL lines: a dump was
    captured, it names its trigger alert and the active fault window,
    and retry attempts are linked into span trees. *)
val checks : result -> Identity.check list

(** Deterministic render (never includes profiler numbers), ending with
    the {!checks} lines and an [OBS OK]/[OBS FAILED] verdict line. *)
val render_result : result -> string

(** Minor-words profiler table ({!Reflex_obs.Profiler.report}) — print
    separately, never fold into a byte-identity-checked output. *)
val profile_report : result -> string
