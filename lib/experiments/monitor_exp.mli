(** The monitoring acceptance scenario ([reflex_sim monitor]).

    Runs the chaos world ({!Chaos.load}, {!Chaos.arm_faults}) under the
    scripted fault plan with the
    {!Reflex_monitor.Monitor} pipeline armed and checks, in one
    deterministic render:

    - alerts fire under faults, every fired alert lands inside a
      settle-padded fault window, and each names the overlapping fault;
    - a clean control run produces {e zero} alert events;
    - an observer-only monitor leaves the world digest identical to a
      run that builds no monitor;
    - an opt-in remediation binding (burn alert → capacity re-pricing)
      actually applies. *)

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
  fired : Alerts.event list;
  in_window : int;
  named : int;
  pad : Time.t;
}

val run : ?mode:Common.mode -> ?seed:int64 -> unit -> result

(** One clean (fault-free) monitored leg only — cheap enough to sweep
    seeds in the zero-alerts-on-clean-runs property test. *)
val run_clean : ?mode:Common.mode -> ?seed:int64 -> unit -> Monitor.t leg

(** The acceptance checks as the render's PASS/FAIL lines: alerts fired
    under faults, inside the fault windows and naming their fault, the
    clean run is silent, the observer-only run equals the no-monitor
    run, and remediation applied. *)
val checks : result -> Identity.check list

val render_result : result -> string

(** [(prometheus page, chrome instant fragments, monitor)] of the
    faulted leg, for the CLI's [--prom-out]/[--trace-out]. *)
val exports : result -> string * string list * Monitor.t
