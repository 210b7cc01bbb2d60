(** Rack topology and the two-layer scheduler's top layer.

    A rack is N independent ReFlex servers ([Reflex_core.Server]) on one
    simulated fabric, a {!Link} table of per-port latencies, and one
    {!Reflex_core.Global_control} pool doing placement.  On top of that
    this module implements the rack-level request path:

    - {e placement} (bottom of the top layer): {!add_tenant} places a
      tenant's home server and, for read-mostly latency-critical
      tenants, a replica set on distinct servers via
      [Global_control.place_excluding_set], then registers the tenant on
      each (full SLO reservation per replica, as a failover-capable
      deployment would);
    - {e request-level balancing}: {!dispatch_read} asks the configured
      {!Policy} to pick one server from the tenant's replica set, using
      probe-aged queue depths ({!sample_probes}) — only the idealized
      oracle policy sees fresh counters — charges the {!Link} ingress
      delay for the chosen port, and issues the read on the tenant's
      connection to that server;
    - {e migration}: {!migrate} re-homes a tenant online — register on
      the destination first, flip the home pointer, then drain and
      unregister the old attachment once its in-flight requests finish.
      {!rebalance} composes that with placement to move a tenant away
      from a hot server.

    Determinism: servers, hosts and connections are created in index
    order (every PRNG split happens in a fixed sequence), the policy
    PRNG is derived from the rack seed, and all iteration is over arrays
    or insertion-ordered lists — a rack run is byte-identical across
    same-seed reruns and [Runner] domains. *)

open Reflex_engine
open Reflex_proto

type t

(** [create sim ~n_servers ()] builds the rack: servers named
    ["rack-00"].., one shared fabric, 16 load-generator
    hosts that tenant connections round-robin over, and the
    balancing policy (default {!Policy.Po2c}).  [seed] (default
    [0xBACC5EEDL]) derives every per-server and policy PRNG stream.
    @raise Invalid_argument when [n_servers < 1]. *)
val create :
  Sim.t ->
  n_servers:int ->
  ?n_threads:int ->
  ?profile:Reflex_flash.Device_profile.t ->
  ?policy:Policy.kind ->
  ?link:Link.t ->
  ?seed:int64 ->
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  unit ->
  t

val sim : t -> Sim.t
val n_servers : t -> int
val server : t -> int -> Reflex_core.Server.t
val server_name : int -> string
val control : t -> Reflex_core.Global_control.t
val policy_kind : t -> Policy.kind

(** {1 Tenants} *)

(** [add_tenant t ~id ~slo ~replicas] places and registers a tenant.
    The home server is placed first; [replicas - 1] more attachments
    land on distinct servers via the exclusion-set placement.  If fewer
    servers can admit the SLO than requested, the tenant keeps the
    attachments that did register (at least the home).  Registration is
    driven synchronously (the simulation is run in short slices until
    the answers arrive), so the tenant is ready to dispatch on return.
    [`Rejected] when no server admits the SLO.
    @raise Invalid_argument on a duplicate id or [replicas < 1]. *)
val add_tenant :
  t -> id:int -> slo:Message.slo -> replicas:int -> [ `Placed of int array | `Rejected ]

(** [add_tenant_on t ~id ~slo ~server] registers a tenant pinned to one
    specific server, bypassing placement — background/best-effort soak
    load and known-topology tests.
    @raise Invalid_argument on a duplicate id or bad server index. *)
val add_tenant_on :
  t -> id:int -> slo:Message.slo -> server:int -> [ `Placed of int array | `Rejected ]

(** Current home server index. @raise Invalid_argument on unknown id. *)
val tenant_home : t -> tenant:int -> int

(** Current replica server indices (home included), in slot order. *)
val tenant_replicas : t -> tenant:int -> int array

(** The tenant with the most cumulative dispatches homed on [server]
    (ties toward the earliest-registered), [None] when no tenant lives
    there — the migration victim selector. *)
val hottest_tenant_on : t -> server:int -> int option

(** {1 Request path} *)

(** [dispatch_read t ~tenant ~lba ~len] routes one read through the
    balancing policy (see module doc).  Completion updates the rack
    histogram, SLO counters and per-server in-flight accounting, then
    calls [on_complete] (closed-loop generators hang their re-issue
    here).
    @raise Invalid_argument on an unknown tenant. *)
val dispatch_read :
  t ->
  ?on_complete:(Message.status -> unit) ->
  tenant:int ->
  lba:int64 ->
  len:int ->
  unit ->
  unit

(** Refresh the probe-aged [sampled] depth vector from
    [Global_control.probes] — the experiment calls this on its probe
    tick, so policy staleness equals the tick period. *)
val sample_probes : t -> unit

(** Probe-aged per-server queue depths (what JSQ/po2c see); a copy. *)
val sampled_depths : t -> int array

(** Cumulative dispatches per server; a copy. *)
val dispatched : t -> int array

(** {1 Migration} *)

(** [migrate t ~tenant ~dst] re-homes [tenant] onto server [dst].
    [`Noop] when [dst] is already the home (idempotence); [`Flipped]
    when [dst] is already in the replica set (the home pointer moves,
    no wire traffic); [`No_capacity] when [dst] cannot admit the SLO;
    otherwise [`Started] — the destination registration is in flight,
    and once it lands the home flips and the old attachment drains and
    unregisters in the background.
    @raise Invalid_argument on an unknown tenant or bad server index. *)
val migrate :
  t -> tenant:int -> dst:int -> [ `Noop | `Flipped | `Started | `No_capacity ]

(** [rebalance t ~tenant] migrates [tenant] to the best server outside
    its current replica set, per [Global_control.place_excluding_set].
    [`No_target] when no other server admits the SLO. *)
val rebalance : t -> tenant:int -> [ `Started | `No_target ]

(** Completed migrations (home actually flipped). *)
val migrations : t -> int

(** {1 Rack-wide accounting} *)

(** End-to-end read latency histogram (ns) of {e latency-critical}
    completions (best-effort soak traffic has no bound to audit).  The
    live instance — snapshot with [Hdr_histogram.copy] for windowing. *)
val latency_hist : t -> Reflex_stats.Hdr_histogram.t

(** Completed reads. *)
val completed : t -> int

(** Dispatches on behalf of latency-critical tenants (cumulative). *)
val lc_dispatched : t -> int

(** Completions with a non-[Ok] status. *)
val errors : t -> int

(** Completions of latency-critical tenants, and how many of those met
    the tenant's SLO latency bound end-to-end. *)
val slo_total : t -> int

val slo_ok : t -> int

(** {1 Rack tracing hooks}

    Armed by [Reflex_rack_obs.Rack_obs]; every hook is inert (one bool
    test on dispatch, one int test per subsequent stamp) until
    {!set_tracer} is called.  [tr_dispatch] fires at the balancing
    instant (hop 0) and returns a recorder slot id, or [-1] to decline
    tracking this request; [tr_issue] fires when the charged ingress
    delay elapses and the read is about to be issued (hop 1), carrying
    the connection's next request id for server-side correlation;
    [tr_complete] fires at reply delivery (hop 4); [tr_migrate] fires
    for every migration decision that records a [Migrate] event. *)
type tracer = {
  tr_dispatch :
    tenant:int -> server:int -> sampled:int -> slo_bound:Time.t -> now:Time.t -> int;
  tr_issue : slot:int -> server:int -> tenant:int -> req:int64 -> now:Time.t -> unit;
  tr_complete : slot:int -> ok:bool -> now:Time.t -> unit;
  tr_migrate : tenant:int -> src:int -> dst:int -> now:Time.t -> unit;
}

val set_tracer : t -> tracer -> unit
