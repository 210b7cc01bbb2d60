(** One ReFlex dataplane thread (paper §3.1, Figure 2).

    The thread owns a dedicated core, a NIC queue pair (modelled as its
    receive ring) and an NVMe queue pair.  Execution is the paper's
    two-step run-to-completion with adaptive batching:

    - step one: poll the receive ring, parse/ACL/syscall each message
      (up to the batch cap of 64), run a QoS scheduling round, and submit
      every admitted request to the NVMe submission queue;
    - step two: poll the NVMe completion queue (again up to 64) and
      transmit each response.

    Both steps charge simulated CPU time to the thread's core; the core is
    the throughput limiter, reproducing ~850K IOPS/core.  When the only
    pending work is rate-limited tenant backlog, the thread re-enters the
    scheduler every [idle_sched_period].

    The payload type ['a] is whatever the server needs to route a
    response; the dataplane never inspects it. *)

open Reflex_engine
open Reflex_flash
open Reflex_qos

type 'a t

val create :
  Sim.t ->
  thread_id:int ->
  qp:Queue_pair.t ->
  device:Nvme_model.t ->
  cost_model:Cost_model.t ->
  global:Global_bucket.t ->
  ?costs:Costs.t ->
  ?neg_limit:float ->
  (* scheduler deficit limit, default -50 tokens (paper §3.2.2) *)
  ?donate_fraction:float ->
  (* share of above-POS_LIMIT balances donated, default 0.9 *)
  ?notify_control_plane:(int -> unit) ->
  ?reroute:(tenant_id:int -> kind:Io_op.kind -> bytes:int -> 'a -> unit) ->
  (* where to send a receive-ring entry whose tenant unregistered before
     it was parsed (the server answers it with an error, or forwards it
     if the tenant has re-registered on another thread); default raises
     [Not_found] *)
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  (* gauges, scheduler decisions and the flight recorder; default
     disabled *)
  stages:Reflex_obs.Stage.sink ->
  (* the server's stage sink: the thread stamps [Server_rx],
     [Sched_enqueue], [Granted], [Nvme_submit] and [Nvme_complete]
     through it; a stage no consumer wants costs one mask test *)
  ?trace_id:('a -> int64) ->
  (* projects the opaque payload to the request id of a stamp; default
     [fun _ -> 0L] *)
  respond:(kind:Io_op.kind -> 'a -> unit) ->
  (* a completed request's payload, handed back for response
     transmission *)
  unit ->
  'a t

(** {1 Tenant management (driven by the server/control plane)} *)

val add_tenant : 'a t -> id:int -> slo:Slo.t -> token_rate:float -> unit
val remove_tenant : 'a t -> id:int -> unit

(** Set every best-effort tenant on this thread to one rate (the BE fair
    share). *)
val set_be_rate : 'a t -> float -> unit

(** Re-price every latency-critical tenant on this thread: [rate_of id]
    gives its new rate ([None] leaves it unchanged). *)
val set_lc_rates : 'a t -> (int -> float option) -> unit

val tenant_count : 'a t -> int

(** {1 Request path} *)

(** [receive t ~tenant_id ~kind ~bytes payload] — a parsed-off-the-wire
    request enters the thread's receive ring.  Raises [Not_found] for an
    unknown tenant. *)
val receive : 'a t -> tenant_id:int -> kind:Io_op.kind -> bytes:int -> 'a -> unit

(** [add_conns t n] changes the count of connections this thread serves
    by [n] (the LLC pressure model); the server calls it for exactly the
    thread a register, join or unregister touches. *)
val add_conns : 'a t -> int -> unit

(** {1 Fault injection}

    [inject_stall t ~duration] occupies the thread's core with
    [duration] of high-priority foreign work (interrupt storm, noisy
    co-tenant): pending cycle steps queue behind it, exactly as behind a
    hogged physical core.  @raise Invalid_argument if [duration <= 0]. *)
val inject_stall : 'a t -> duration:Time.t -> unit

(** {1 Observability} *)

val utilization : 'a t -> float
val tokens_spent : 'a t -> float

(** Cumulative weighted tokens the tenant's submitted requests have cost
    on this thread ([None]: tenant not on this thread).  The monitoring
    layer takes windowed deltas of this to place a tenant's operating
    point on the device's latency-vs-weighted-IOPS curve. *)
val tenant_tokens_submitted : 'a t -> id:int -> float option

(** Requests inside this thread: unparsed receive-ring entries, queued
    tenant requests awaiting tokens, and in-flight NVMe commands.
    O(tenants) — a probe-path metric (the rack layer samples it every
    few hundred microseconds), not a per-cycle one. *)
val queue_depth : 'a t -> int
