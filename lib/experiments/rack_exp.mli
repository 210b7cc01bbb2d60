(** The rack-scale scheduling acceptance scenario ([reflex_sim rack]).

    Builds a rack of dozens of ReFlex servers ([Reflex_rack.Rack]) with
    thousands of Zipf-loaded latency-critical tenants (each holding a
    replica set on distinct servers) plus a deliberately {e uneven}
    best-effort soak, then:

    - {e bakeoff}: runs the same world once per balancing policy
      (random, round-robin, JSQ over probe-aged samples,
      power-of-two-choices, idealized centralized oracle) and renders
      the rack-wide SLO audit per policy: windowed p50/p95/p99,
      SLO-compliance fraction, per-server dispatch imbalance, and the
      reported gap from the oracle;
    - {e migration leg}: a replica-free rack where the tenants homed on
      one server drive far above their declared reservation; the skew
      detector ([Reflex_rack.Skew], over the same probe samples the
      balancers see) fires and {!Reflex_rack.Rack.rebalance} migrates
      the heaviest tenants away — the render shows migrations applied
      and the dispatch imbalance before vs after. *)

open Reflex_rack
open Reflex_engine

(** Scenario scale — overridable via [run ~scale] so tests can drive a
    small coherent world (the defaults depend on the mode). *)
type scale = {
  s_servers : int;
  s_tenants : int;
  s_replicas : int;
  s_warmup : Time.t;
  s_window : Time.t;  (** measurement window after warmup *)
  s_settle : Time.t;  (** migration leg: detector arm -> measure gap *)
  s_total_kiops : float;  (** aggregate LC offered load *)
  s_hot_tenants : int;  (** migration leg: pinned heavy tenants *)
  s_hot_iops : int;  (** each heavy tenant's declared = offered rate *)
}

(** One bakeoff row: windowed measurements for one policy. *)
type policy_row = {
  p_kind : Policy.kind;
  p_dispatched : int;  (** LC requests dispatched in the window *)
  p_completed : int;  (** LC completions landing in the window *)
  p_p50_us : float;
  p_p95_us : float;
  p_p99_us : float;
  p_slo_pct : float;  (** % of LC completions inside the SLO bound *)
  p_imbalance : float;  (** max/mean per-server dispatches (all traffic) *)
}

type migration_leg = {
  m_migrations : int;
  m_fires : int;  (** skew-detector firings *)
  m_imbalance_before : float;
  m_imbalance_after : float;
  m_p99_before_us : float;
  m_p99_after_us : float;
}

(** One distributed-tracing leg ([Reflex_rack_obs] armed end-to-end):
    per-hop attribution, exemplars, rollup/stitch artifacts, and the
    rack burn alert + forensic dump state. *)
type obs_leg = {
  o_congested : bool;  (** congested-link variant? *)
  o_traced : int;
  o_untiled : int;
  o_fallbacks : int;
  o_overflow : int;
  o_tiling_ok : bool;
  o_migrations : int;
  o_alert_fired : bool;
  o_dump_line : string;
  o_dominant : int option;  (** dominant SLO-violation component *)
  o_attribution : string;
  o_exemplars : string;
  o_lanes : string;
  o_stitch : string;  (** full cross-server span-tree stitching *)
  o_rollup_md5 : string;  (** digest of the merged Chrome trace *)
}

type result = {
  r_scale : scale;
  r_seed : int64;
  r_servers : int;
  r_tenants : int;  (** LC tenants placed (admission can trim) *)
  r_replicas : int;
  r_rows : policy_row list;  (** in {!Policy.all} order *)
  r_migration : migration_leg;
  r_obs : obs_leg list;  (** normal link, then congested link *)
}

val run : ?mode:Common.mode -> ?seed:int64 -> ?jobs:int -> ?scale:scale -> unit -> result

(** {1 Predicates (the render's PASS/FAIL lines)} *)

val po2c_beats_random : result -> bool

(** The oracle's SLO compliance is >= every other policy's. *)
val oracle_best : result -> bool

val migrations_applied : result -> bool
val migration_helps : result -> bool

(** The predicates above as the render's PASS/FAIL lines. *)
val checks : result -> Identity.check list

val render_result : result -> string

val render :
  ?mode:Common.mode -> ?seed:int64 -> ?jobs:int -> ?scale:scale -> unit -> string

(** One telemetry-armed po2c leg (probes, balancing decisions and
    migrations land in the flight recorder and gauges), for the CLI's
    [--prom-out]/[--trace-out]. *)
val export_leg : ?mode:Common.mode -> ?seed:int64 -> unit -> Reflex_telemetry.Telemetry.t
