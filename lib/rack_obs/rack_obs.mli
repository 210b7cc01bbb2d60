(** Rack-scale distributed tracing: cross-server trace context, per-hop
    latency attribution, and tail exemplars.

    {!create} arms a {!Reflex_rack.Rack} world: it installs the rack
    {!Reflex_rack.Rack.tracer} hooks and a per-server
    {!Reflex_obs.Hopsink} on every server's dataplane threads.  From
    then on every dispatched read carries a trace context — a
    rack-unique request id ([rid]) minted at the balancing instant plus
    a hop sequence — recorded allocation-free into per-server flight
    rings:

    {v
      hop 0  pick      balancing decision      (rack, tr_dispatch)
      hop 1  issue     ingress charge elapsed  (rack, tr_issue)
      hop 2  submit    NVMe submission         (server, hop sink)
      hop 3  complete  NVMe completion         (server, hop sink)
      hop 4  reply     response delivered      (rack, tr_complete)
    v}

    Each stamp is a [Flight.Kind.Hop] record with [a = rid],
    [b = (tenant lsl 3) lor hop] and [v] the hop's delta in us; picks
    additionally write a [Balance] record and migrations a [Migrate]
    record into a rack-lane ring.  {!Rack_rollup} merges those rings
    into one timeline.

    Per-hop deltas {e tile} the end-to-end latency exactly: with stamp
    times [t0..t4],
    [pick (0) + ingress (t1-t0) + queue (t2-t1) + service (t3-t2) +
    egress (t4-t3) = t4-t0].  Requests that complete without reaching
    the NVMe path (error replies) fall back to charging the remainder to
    [queue], so the telescoping identity is universal — {!untiled} stays
    0 by construction and the qcheck suite proves it.

    Everything here is driven by the deterministic simulation clock:
    attribution tables, exemplars, rollups and forensic dumps are
    byte-identical across same-seed reruns and [Runner --jobs]
    fan-out. *)

open Reflex_engine
module Flight = Reflex_obs.Flight
module Hdr = Reflex_stats.Hdr_histogram

(** Number of latency components (pick/ingress/queue/service/egress). *)
val n_components : int

(** Component index -> name ([0..4] = pick/ingress/queue/service/egress). *)
val component_name : int -> string

(** Stamp-point index -> name ([0..4] = pick/issue/submit/complete/reply). *)
val stamp_name : int -> string

(** One of the K worst latency-critical requests, frozen at reply time
    with its full hop decomposition. *)
type exemplar = {
  ex_rid : int;
  ex_tenant : int;
  ex_server : int;  (** chosen server index *)
  ex_t0 : Time.t;  (** pick instant *)
  ex_sampled : int;  (** probe-aged depth the policy saw for the pick *)
  ex_bound : Time.t;  (** the tenant's SLO latency bound *)
  ex_pick : Time.t;
  ex_ingress : Time.t;
  ex_queue : Time.t;
  ex_service : Time.t;
  ex_egress : Time.t;
  ex_e2e : Time.t;
}

type migration = { mg_time : Time.t; mg_tenant : int; mg_src : int; mg_dst : int }

(** Forensic dump captured on the first rack burn-alert [Fired] edge. *)
type dump = {
  d_time : Time.t;
  d_rule : string;
  d_server_snaps : Flight.snapshot array;
  d_rack_snap : Flight.snapshot;
}

type t

(** [create rack] builds the recorder and arms the rack + every server.
    [capacity] bounds concurrently traced requests (default 4096;
    overflow declines cleanly, counted in {!slot_overflow}).
    [ring_capacity] sizes each per-server/rack flight ring (default
    [1 lsl 14] records).  [exemplars] is K, the worst-request set size
    (default 4).
    @raise Invalid_argument when [capacity < 1] or [exemplars < 1]. *)
val create : ?capacity:int -> ?ring_capacity:int -> ?exemplars:int -> Reflex_rack.Rack.t -> t

(** {1 Counters} *)

(** Requests traced end-to-end (reply stamp reached). *)
val traced : t -> int

(** Traced completions whose hop deltas did NOT sum to e2e — 0 unless
    the tiling discipline is broken. *)
val untiled : t -> int

(** Completions missing the server-side submit/complete stamps (charged
    to [queue] by the fallback rule). *)
val fallbacks : t -> int

(** Dispatches declined because the slot table was full. *)
val slot_overflow : t -> int

(** Traced latency-critical completions (the attribution population). *)
val lc_traced : t -> int

(** [tiling_ok t] — at least one request traced and none untiled. *)
val tiling_ok : t -> bool

(** {1 Attribution} *)

(** Per-component SLO-violation counts (dominant component per
    violation, ties toward the earlier hop); a copy. *)
val violations : t -> int array

val violation_total : t -> int

(** Per-component latency histogram over LC completions (live). *)
val component_hist : t -> int -> Hdr.t

(** End-to-end histogram over LC completions (live). *)
val e2e_hist : t -> Hdr.t

(** Worst-K exemplars, worst first. *)
val exemplars : t -> exemplar list

(** Completed migration log, oldest first. *)
val migrations : t -> migration list

(** The latest migration of [tenant] at or before [time] — the
    [Follows_from] causal parent of a dispatch picked at [time]. *)
val follows_from : t -> tenant:int -> time:Time.t -> migration option

(** Cumulative charged ingress-link busy time per server port (us); a
    copy. *)
val link_busy_us : t -> float array

(** {1 Rings and snapshots} *)

val server_ring : t -> int -> Flight.t
val rack_ring : t -> Flight.t
val snapshot_servers : t -> now:Time.t -> window:Time.t -> Flight.snapshot array
val snapshot_rack : t -> now:Time.t -> window:Time.t -> Flight.snapshot

(** {1 Monitor wiring} *)

(** Name of the rack-level burn-rate alert rule registered by
    {!wire_monitor}. *)
val burn_rule_name : string

(** [wire_monitor t ~tsdb ~alerts ()] registers the rack series —
    [rack/slo_good]/[rack/slo_bad] cumulatives, the [rack/e2e] delta
    histogram, the [rack/imbalance] gauge (max-over-mean in-flight) and
    per-server [rack/link/s%02d/busy_us] cumulatives — and adds the
    {!burn_rule_name} multi-window burn-rate rule (availability [target],
    default 0.95; 1 window at 8x AND 3 windows at 4x). *)
val wire_monitor : t -> tsdb:Reflex_monitor.Tsdb.t -> alerts:Reflex_monitor.Alerts.t -> ?target:float -> unit -> unit

(** [start_monitor t ~tsdb ~alerts ~until ()] arms a periodic tick
    (default [every] 1ms) that closes Tsdb windows and steps the alert
    rules; the first [Fired] edge freezes a rack-wide forensic dump
    ({!dump}) spanning the trailing [dump_window] (default 4ms). *)
val start_monitor :
  t ->
  tsdb:Reflex_monitor.Tsdb.t ->
  alerts:Reflex_monitor.Alerts.t ->
  ?every:Time.t ->
  ?dump_window:Time.t ->
  until:Time.t ->
  unit ->
  unit

val dump : t -> dump option

(** {1 Rendering} *)

(** Per-hop attribution table + tiling status + dominant-hop SLO
    violation line. *)
val attribution : t -> string

(** Worst-K exemplar report with [follows_from] migration parents and
    full hop decomposition. *)
val render_exemplars : t -> string

(** {1 Bench probe} *)

(** [bench_hop_records t n] performs [n] hop-record ring writes — the
    exact store sequence the armed trace path performs per stamp. *)
val bench_hop_records : t -> int -> unit
