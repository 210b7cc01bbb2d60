(** Shared scaffolding for the paper-reproduction experiments: world
    construction (simulation + fabric + servers + clients), measured load
    runs, and quick/full duration scaling. *)

open Reflex_engine
open Reflex_net
open Reflex_client

(** Quick mode shortens measurement windows and thins sweeps so the whole
    harness finishes in minutes; Full uses longer windows for smoother
    percentiles. *)
type mode = Quick | Full

val window : mode -> Time.t
(** Base measurement window: 150ms (Quick) / 500ms (Full). *)

val scale_points : mode -> 'a list -> 'a list -> 'a list
(** [scale_points mode quick full] picks the sweep for the mode. *)

(** A ReFlex deployment on a fresh simulation. *)
type reflex_world = {
  sim : Sim.t;
  fabric : Fabric.t;
  server : Reflex_core.Server.t;
  telemetry : Reflex_telemetry.Telemetry.t;
      (** the world's observability sink; {!Reflex_telemetry.Telemetry.disabled}
          unless requested *)
}

(** When set, worlds built by {!make_reflex} without an explicit
    [?telemetry] get a fresh enabled instance (one per world — safe under
    {!Runner} domain parallelism) with the metrics sampler started and a
    flight recorder attached (the scheduler decision log).  Driven by the
    [--telemetry]/[--trace-out] CLI flags. *)
val set_default_telemetry : bool -> unit

(** The telemetry of the most recent world armed by
    {!set_default_telemetry} (worlds given an explicit [?telemetry] never
    write it).  Meaningful in {e serial} runs only: the CLI forces
    [jobs=1] whenever telemetry is on. *)
val last_telemetry : Reflex_telemetry.Telemetry.t option ref

val make_reflex :
  ?n_threads:int ->
  ?qos:bool ->
  ?neg_limit:float ->
  ?donate_fraction:float ->
  ?seed:int64 ->
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  unit ->
  reflex_world

(** A baseline (libaio / iSCSI) deployment. *)
type baseline_world = {
  bsim : Sim.t;
  bfabric : Fabric.t;
  bserver : Reflex_baselines.Baseline_server.t;
}

val make_baseline :
  kind:Reflex_baselines.Baseline_server.kind -> ?n_threads:int -> ?seed:int64 -> unit -> baseline_world

(** Connect a client and register; runs the simulation until the
    registration completes.  Raises [Failure] if it is refused.
    [retry]/[retry_seed] pass through to {!Client_lib.connect} for
    chaos experiments that want deadlines and retries. *)
val client_of :
  reflex_world ->
  ?stack:Stack_model.t ->
  ?slo:Reflex_proto.Message.slo ->
  ?retry:Retry.policy ->
  ?retry_seed:int64 ->
  tenant:int ->
  unit ->
  Client_lib.t

val client_of_baseline :
  baseline_world -> ?stack:Stack_model.t -> tenant:int -> unit -> Client_lib.t

(** One latency-critical tenant of {!mixed_load}: its SLO and the rate
    and read ratio of its open-loop CBR load. *)
type lc_spec = {
  lc_tenant : int;
  lc_latency_us : int;
  lc_iops : int;
  lc_read_pct : int;
  lc_rate : float;
  lc_read_ratio : float;
}

type load = { tenant : int; client : Client_lib.t; gen : Load_gen.t }

(** The §5 interference load: for each [lc] spec, in order, a
    registered client and an open-loop CBR/deterministic 4KB generator
    (seed [seed + 17 + tenant]); then BE tenants 101 and 102, each a
    closed-loop write flood (10% reads, depth [be_depth], seed
    [seed + 91 + i]).  With [retry], the LC clients retry with jitter
    seed [seed + 1000 + tenant].  Returns the LC loads and the BE loads;
    every generator runs until [until]. *)
val mixed_load :
  reflex_world ->
  seed:int64 ->
  until:Time.t ->
  lc:lc_spec list ->
  be_depth:int ->
  ?retry:Retry.policy ->
  unit ->
  load list * load list

(** World digest: the server's completion, token and thread counters,
    then one line of generator stats per load. *)
val digest : reflex_world -> load list -> string

(** [contains_sub s sub]: [sub] occurs in [s]. *)
val contains_sub : string -> string -> bool

(** [measure_generators sim gens ~warmup ~window] runs warmup, marks all
    generators, runs the window, freezes them, then drains briefly. *)
val measure_generators : Sim.t -> Load_gen.t list -> warmup:Time.t -> window:Time.t -> unit

(** Helper to build a latency-critical register-message SLO. *)
val lc_slo : latency_us:int -> iops:int -> read_pct:int -> Reflex_proto.Message.slo

val be_slo : ?read_pct:int -> unit -> Reflex_proto.Message.slo
