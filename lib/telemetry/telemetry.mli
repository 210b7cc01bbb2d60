(** Observability core: lifecycle span ring and a named-metrics registry
    with a sim-time sampler tick.  The scheduler's decision log is the
    attached flight recorder (see {!decisions_report}).

    One {!t} per simulated world.  The defining contract is
    {e zero overhead when disabled}: every record operation first reads the
    immutable [enabled] flag and returns without allocating or mutating when
    it is false, so instrumentation can stay compiled into the dataplane hot
    path (PR 1's allocation-free cycle) at no cost.  The shared {!disabled}
    instance is never mutated and is therefore safe to share across domains
    (parallel {!Reflex_experiments.Runner} workers). *)

open Reflex_engine
open Reflex_stats

(** Request lifecycle stages: the shared vocabulary of [lib/obs]. *)
module Stage = Reflex_obs.Stage

type t

(** Handle to a registered counter.  Mutating a handle obtained from a
    disabled instance is a silent no-op sink. *)
type counter

(** The shared always-disabled instance.  All record operations on it are
    no-ops; it is never mutated, hence domain-safe. *)
val disabled : t

(** [create ()] makes an enabled instance.  [span_capacity] bounds the
    span ring (oldest entries are overwritten on wraparound). *)
val create : ?span_capacity:int -> unit -> t

val enabled : t -> bool

(** {1 lib/obs attachments}

    The always-on flight recorder and the cost profiler (both from
    [lib/obs]) ride on the telemetry instance so every layer that already
    threads a [t] can reach them.  Both default to the shared disabled
    instances.  Attach {e before} building the world: the scheduler and
    dataplane cache the handles at creation time. *)

(** The attached flight recorder ([Reflex_obs.Flight.disabled] unless set). *)
val flight : t -> Reflex_obs.Flight.t

(** Attach a flight recorder.  Raises [Invalid_argument] on the shared
    {!disabled} instance (which must never be mutated). *)
val set_flight : t -> Reflex_obs.Flight.t -> unit

val profiler : t -> Reflex_obs.Profiler.t

(** Attach a cost profiler and publish its per-subsystem minor-words
    accumulators as [obs/prof/...] gauges (read on demand by the metrics
    report and the Prometheus export).  Raises on {!disabled}. *)
val set_profiler : t -> Reflex_obs.Profiler.t -> unit

(** {1 Lifecycle spans} *)

(** [span t ~now ~lane ~tenant ~req_id stage] records one stage of one
    request.  Request identity is [(lane, tenant, req_id)]: [lane] is the
    serving host's fabric id, since req_ids are only unique per
    connection. *)
val span : t -> now:Time.t -> lane:int -> tenant:int -> req_id:int64 -> Stage.t -> unit

(** [attach_stages t sink] makes an enabled [t] record every stage stamped
    through [sink] as a span; a no-op on a disabled instance. *)
val attach_stages : t -> Stage.sink -> unit

(** Spans currently retained (<= capacity). *)
val span_count : t -> int

(** Spans ever recorded, including overwritten ones. *)
val spans_recorded : t -> int

(** Spans lost to wraparound. *)
val spans_dropped : t -> int

(** Oldest-first over the retained window. *)
val iter_spans :
  t -> (time:Time.t -> lane:int -> tenant:int -> req_id:int64 -> stage:Stage.t -> unit) -> unit

(** {1 Metrics registry}

    Metric names are slash-separated paths, e.g. ["core/thread0/rounds"],
    ["qos/t7/tokens"], ["flash/read_ns"]. *)

(** Get or create a named counter.  On a disabled instance this returns a
    shared sink that guarded record sites never write. *)
val counter : t -> string -> counter

val add : counter -> float -> unit
val incr : counter -> unit
val counter_value : counter -> float

(** [register_gauge t name f] registers [f] under [name]; it is read on
    demand by {!metrics_report} and {!find_metric}. *)
val register_gauge : t -> string -> (unit -> float) -> unit

val unregister : t -> string -> unit

(** Get or create a named latency histogram (values in nanoseconds). *)
val histogram : t -> string -> Hdr_histogram.t

(** Registered metric names, sorted. *)
val metric_names : t -> string list

(** Typed read-only view of one registered metric: its current counter or
    gauge value, or the live histogram.  Exporters (Prometheus text
    exposition in lib/monitor) need the kind, not just a scalar. *)
val find_metric :
  t -> string -> [ `Counter of float | `Gauge of float | `Hist of Hdr_histogram.t ] option

(** {1 Per-tenant SLO dimensions} *)

val set_tenant_slo : t -> tenant:int -> latency_critical:bool -> latency_us:int -> unit

(** [(latency_critical, latency_us)] if registered. *)
val tenant_slo : t -> tenant:int -> (bool * int) option

val tenants_with_slo : t -> int list

(** End-to-end server-side latency histogram for a tenant (ns). *)
val tenant_latency_hist : t -> tenant:int -> Hdr_histogram.t

val record_tenant_latency : t -> tenant:int -> int64 -> unit

(** {1 Causal span links}

    Edges between spans turn the flat ring into trees: retry attempt N+1
    {e follows from} attempt N (a new req_id for the same logical
    operation), and derived work hangs {e under} its parent.  Links are
    rare events (retries, remediations) and never touch the hot path. *)

type link_kind =
  | Follows_from  (** same logical op continued under a new req_id *)
  | Child_of  (** derived span nested under its parent *)

(** [link t ~now ~kind ~src_tenant ~src_req ~dst_tenant ~dst_req] records
    a causal edge src -> dst between two (tenant, req_id) spans. *)
val link :
  t ->
  now:Time.t ->
  kind:link_kind ->
  src_tenant:int ->
  src_req:int64 ->
  dst_tenant:int ->
  dst_req:int64 ->
  unit

(** Chronological [(time, kind, src, dst)] edges. *)
val links : t -> (Time.t * link_kind * (int * int64) * (int * int64)) list

(** [remediation_mark t ~now ~rule ~outcome] timestamps an applied
    remediation (also mirrored into the flight ring), so degrade actions
    appear in traces linked to the alert rule that bound them. *)
val remediation_mark : t -> now:Time.t -> rule:string -> outcome:string -> unit

(** Chronological [(time, rule, outcome)] marks. *)
val remediation_log : t -> (Time.t * string * string) list

(** {1 Fault marks}

    The fault injector (lib/faults) timestamps every fault activation and
    deactivation here, so reports and the SLO auditor can attribute
    latency excursions to the fault windows that caused them. *)

(** [fault_mark t ~now ~label ~active] records a fault transition:
    [active = true] at injection, [false] at recovery.  No-op when
    disabled. *)
val fault_mark : t -> now:Time.t -> label:string -> active:bool -> unit

(** Chronological [(time, label, active)] marks. *)
val fault_log : t -> (Time.t * string * bool) list

(** Start/stop marks paired into [(label, start, stop)] windows sorted by
    start; [stop = None] for faults still active at the end. *)
val fault_windows : t -> (string * Time.t * Time.t option) list

(** One line per fault window. *)
val faults_report : t -> string

(** {1 Sampling} *)

(** Record one sampler tick at [now]: bumps {!sample_count} and sets
    {!last_sample}.  Metric values are not copied; gauges are read on
    demand. *)
val sample : t -> now:Time.t -> unit

(** [start_sampler t sim ()] ticks {!sample} every 1ms of sim time, as a {e daemon} event ({!Sim.every_daemon}): the
    sampler never keeps the simulation alive on its own and does not
    perturb simulation state, so telemetry-on results equal telemetry-off
    results bit for bit.  Idempotent per instance. *)
val start_sampler : t -> Sim.t -> unit -> unit

val sample_count : t -> int

(** Time of the latest sampler tick ([Time.zero] before the first). *)
val last_sample : t -> Time.t

(** {1 Plain-text reports} *)

(** Final value of every metric (histograms: n/mean/p95/p99 in µs). *)
val metrics_report : t -> string

(** The last 40 Algorithm-1 decisions in the attached flight ring, one
    line each: time, thread, tenant, kind and the record's one value [v]
    (see {!Reflex_obs.Flight.Kind}).  A Throttle of a best-effort tenant
    prints as [be_starved].  Without an armed flight recorder it prints a
    one-line "not armed" header. *)
val decisions_report : t -> string
