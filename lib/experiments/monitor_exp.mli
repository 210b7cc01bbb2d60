(** The monitoring acceptance scenario ([reflex_sim monitor]).

    Runs the chaos world ({!Chaos.load}, {!Chaos.arm_faults}) under the
    scripted fault plan with the
    {!Reflex_monitor.Monitor} pipeline armed and checks, in one
    deterministic render:

    - alerts fire under faults, every fired alert lands inside a
      settle-padded fault window, and each names the overlapping fault;
    - a clean control run produces {e zero} alert events;
    - a disabled-monitor run is byte-identical to a run that builds
      no monitor (and an enabled observer-only monitor leaves the world digest
      unchanged too);
    - an opt-in remediation binding (burn alert → capacity re-pricing)
      actually applies.

    {!debrief} adds the {!Identity.verify} checks — the alert timeline
    is part of the render, so this is the bit-reproducible alerting
    check. *)

open Reflex_engine
open Reflex_faults
open Reflex_monitor

(** One run of the chaos world.  ['m] is what the leg armed before the
    first registration: a {!Monitor.t}, or [unit] for the no-monitor
    leg. *)
type 'm leg = {
  digest : string;
  monitor : 'm;
  telemetry : Reflex_telemetry.Telemetry.t;
  plan : Fault_plan.t;
  injected : int;
  recovered : int;
}

type result = {
  faulted : Monitor.t leg;
  clean : Monitor.t leg;
  remediated : Monitor.t leg;
  digest_none : string;
  digest_disabled : string;
  fired : Alerts.event list;
  in_window : int;
  named : int;
  pad : Time.t;
}

val run : ?mode:Common.mode -> ?seed:int64 -> unit -> result

(** One clean (fault-free) monitored leg only — cheap enough to sweep
    seeds in the zero-alerts-on-clean-runs property test. *)
val run_clean : ?mode:Common.mode -> ?seed:int64 -> unit -> Monitor.t leg

val alerts_fired : result -> bool
val alerts_in_windows : result -> bool
val alerts_named : result -> bool
val disabled_identical : result -> bool
val observer_identical : result -> bool
val remediation_applied : result -> bool

(** The predicates above as the render's PASS/FAIL lines. *)
val checks : result -> Identity.check list

val render_result : result -> string
val render : ?mode:Common.mode -> ?seed:int64 -> unit -> string

(** [(prometheus page, chrome instant fragments, monitor)] of the
    faulted leg, for the CLI's [--prom-out]/[--trace-out]. *)
val exports : result -> string * string list * Monitor.t

(** {!render} followed by the {!Identity.verify} checks. *)
val debrief : ?mode:Common.mode -> ?seed:int64 -> unit -> Identity.report
