(** Rack-scale distributed tracing: cross-server trace context, per-hop
    latency attribution, and tail exemplars.

    {!create} arms a {!Reflex_rack.Rack} world: it installs the rack
    {!Reflex_rack.Rack.tracer} hooks and attaches to every server's
    {!Reflex_obs.Stage} sink.  From then on every dispatched read
    carries a trace context — a rack-unique request id ([rid]) minted at
    the balancing instant plus its position on
    {!Reflex_obs.Stage.rack_path} — recorded allocation-free into
    per-server flight rings:

    {v
      stamp 0  pick      Pick             balancing decision      (rack, tr_dispatch)
      stamp 1  issue     Client_submit    ingress charge elapsed  (rack, tr_issue)
      stamp 2  submit    Nvme_submit      NVMe submission         (server, stage sink)
      stamp 3  complete  Nvme_complete    NVMe completion         (server, stage sink)
      stamp 4  reply     Client_complete  response delivered      (rack, tr_complete)
    v}

    Server stamps correlate back to their slot through one
    {!Reflex_obs.Corr} table keyed [(lane, tenant, req)].  Each stamp is
    a [Flight.Kind.Hop] record with [a = rid],
    [b = (tenant lsl 3) lor stamp] and [v] the stamp's delta in us;
    picks additionally write a [Balance] record and migrations a
    [Migrate] record into a rack-lane ring.  {!Rack_rollup} merges those
    rings into one timeline.

    The components {e tile} the end-to-end latency exactly
    ({!Reflex_obs.Stage.tile}): with stamp times [t0..t4],
    [pick (0) + ingress (t1-t0) + queue (t2-t1) + service (t3-t2) +
    egress (t4-t3) = t4-t0].  A missing server stamp (an error reply
    that never reached the NVMe path) takes the reply's time, charging
    the gap to [queue], so the telescoping identity is universal —
    {!untiled} stays 0 by construction and the qcheck suite proves it.

    Everything here is driven by the deterministic simulation clock:
    attribution tables, exemplars, rollups and forensic dumps are
    byte-identical across same-seed reruns and [Runner --jobs]
    fan-out. *)

open Reflex_engine
module Flight = Reflex_obs.Flight

(** Stamp index on {!Reflex_obs.Stage.rack_path} -> name
    ([0..4] = pick/issue/submit/complete/reply). *)
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
  ex_comps : Time.t array;  (** pick, ingress, queue, service, egress *)
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
    At most 4096 requests are traced concurrently (overflow declines
    cleanly, counted in {!slot_overflow}); each per-server/rack flight
    ring holds [1 lsl 14] records.  [exemplars] is K, the worst-request
    set size (default 4).
    @raise Invalid_argument when [exemplars < 1]. *)
val create : ?exemplars:int -> Reflex_rack.Rack.t -> t

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

(** Per-component SLO-violation counts ({!Reflex_obs.Stage.dominant}
    per violation, ties toward the earlier component); a copy. *)
val violations : t -> int array

val violation_total : t -> int

(** Worst-K exemplars, worst first. *)
val exemplars : t -> exemplar list

(** Completed migration log, oldest first. *)
val migrations : t -> migration list

(** {1 Rings and snapshots} *)

val server_ring : t -> int -> Flight.t
val rack_ring : t -> Flight.t
val snapshot_servers : t -> now:Time.t -> window:Time.t -> Flight.snapshot array
val snapshot_rack : t -> now:Time.t -> window:Time.t -> Flight.snapshot

(** {1 Monitor wiring} *)

(** [wire_monitor t ~tsdb ~alerts] registers the two series the rack
    rule reads — [rack/slo_good]/[rack/slo_bad] cumulatives — and adds
    the [rack/slo_burn] multi-window burn-rate rule (availability target
    0.95; 1 window at 8x AND 3 windows at 4x). *)
val wire_monitor : t -> tsdb:Reflex_monitor.Tsdb.t -> alerts:Reflex_monitor.Alerts.t -> unit

(** [start_monitor t ~tsdb ~alerts ~until] arms a 1ms periodic tick
    that closes Tsdb windows and steps the alert rules; the first
    [Fired] edge freezes a rack-wide forensic dump ({!dump}) spanning
    the trailing 4ms. *)
val start_monitor :
  t -> tsdb:Reflex_monitor.Tsdb.t -> alerts:Reflex_monitor.Alerts.t -> until:Time.t -> unit

val dump : t -> dump option

(** {1 Rendering} *)

(** Per-hop attribution table + tiling status + dominant-hop SLO
    violation line. *)
val attribution : t -> string

(** Worst-K exemplar report with [follows_from] migration parents and
    full hop decomposition. *)
val render_exemplars : t -> string
