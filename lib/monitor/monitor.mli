(** The monitoring facade: one daemon tick drives

    tenant sync → {!Tsdb} window close → {!Budget} accounting →
    {!Alerts} rule evaluation → opt-in {!Remediate} actions

    in a fixed order, so the alert timeline of a same-seed run is
    byte-identical serial or under [Runner --jobs].  The policy is one
    set of constants (see {!create}); the monitor and obs scenarios run
    it over the one chaos world ([Experiments.Chaos]).

    Per-LC-tenant instrumentation (windowed latency delta histograms,
    good/bad counts against the SLO bound, weighted-token rates, EWMA
    z-scores of the SLO-violating fraction) is wired lazily: tenants register with the scheduler
    {e after} the monitor is armed, and each tick picks up new ids from
    [Telemetry.tenants_with_slo].  Every LC tenant gets three default
    rules: [t<ID>/burn] (multi-window burn rate, 2 windows @ 10× ∧ 10
    windows @ 5×), [t<ID>/knee] (operating point past the device's
    hockey-stick knee while violating the SLO) and [t<ID>/anomaly]
    (EWMA z-score on the windowed SLO-violating fraction, gated on an
    absolute floor so clean runs stay silent).

    {e Zero overhead when disabled}: with [~enabled:false] (or a
    disabled telemetry) nothing is registered and no daemon is armed —
    a disabled-monitor run is bit-identical to a run with no monitor.
    Remediation is opt-in via {!bind}; without bindings the monitor
    never mutates the world. *)

open Reflex_engine
open Reflex_core
open Reflex_telemetry

type t

(** One alert-triggered forensic dump: the {!Reflex_obs.Flight} ring
    snapshot frozen at the tick where the alert fired, with the firing
    rule and the fault windows known at that instant. *)
type flight_dump = private {
  d_rule : string;
  d_time : Time.t;
  d_detail : string;
  d_snapshot : Reflex_obs.Flight.snapshot;
  d_faults : Reflex_obs.Flight_dump.fault_window list;
}

(** The monitoring policy (one, fixed): sample every {!interval} (1ms)
    into a 4096-window {!Tsdb}; SLO [target] 0.99 with burn windows
    2 @ 10× ∧ 10 @ 5×; anomaly at z ≥ 3.0 with at least 0.25 of the
    window violating; a bound remediation applies at most once per 50ms
    per rule; SLO budgets accumulate over the whole run; the load knee
    sits at 0.8 of device token capacity.  [fault_lookback] bounds how far back a fired
    alert searches for fault windows to name in its detail (default:
    the long burn window, 10ms).

    When the telemetry carries an armed flight recorder
    ([Telemetry.set_flight]), every alert edge is mirrored into the ring
    and each {e fired} edge freezes the last 5ms of flight records as a
    forensic dump, at most 4 per run.  The Tsdb holds only the
    per-tenant series the rules read; {!prometheus} renders the
    telemetry registry itself. *)
val create :
  ?enabled:bool ->
  ?fault_lookback:Time.t ->
  server:Server.t ->
  telemetry:Telemetry.t ->
  unit ->
  t

(** The sampling period: 1ms. *)
val interval : Time.t

val enabled : t -> bool
val tsdb : t -> Tsdb.t
val alerts : t -> Alerts.t

(** Advance the pipeline one window.  Normally driven by {!start}. *)
val tick : t -> now:Time.t -> unit

(** Arm the periodic daemon tick ({!Sim.every_daemon}: never keeps the
    simulation alive).  Idempotent; no-op when disabled. *)
val start : t -> Sim.t -> unit -> unit

(** {1 Remediation (opt-in)} *)

(** [bind t ~rule action] applies [action] whenever [rule] fires, at
    most once per cooldown window per rule. *)
val bind : t -> rule:string -> Remediate.action -> unit

(** [(time, rule, action, outcome)] in application order. *)
val remediation_log : t -> (Time.t * string * Remediate.action * string) list

(** {1 Queries} *)

val events : t -> Alerts.event list

(** {1 Flight dumps} *)

(** Alert-triggered dumps in firing order (empty without an armed flight
    recorder). *)
val flight_dumps : t -> flight_dump list

(** JSON forensic debrief of one dump, cross-referenced to its trigger
    alert and fault windows ({!Reflex_obs.Flight_dump.debrief}). *)
val dump_debrief : flight_dump -> string

(** Chrome [trace_event] render of one dump
    ({!Reflex_obs.Flight_dump.to_chrome_json}). *)
val dump_chrome_json : flight_dump -> string

(** {1 Exports} *)

(** Alert timeline as Chrome-trace instant-event JSON objects, ready
    for [Trace_export.to_chrome_json ~extra]. *)
val chrome_instants : t -> string list

(** Prometheus text exposition: the telemetry registry plus budget
    consumption/burn gauges and currently-firing alert rules.  Empty
    when disabled. *)
val prometheus : t -> string

val report : t -> string
