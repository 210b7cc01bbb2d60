(** The ReFlex server: dataplane threads + control plane + tenant/ACL
    management behind the wire protocol.

    A server owns one NVMe device and [n_threads] dataplane threads
    (each with its own core and NVMe queue pair), fixed at creation as
    the paper runs each server with a fixed core count.  Clients connect over
    the fabric, register tenants with SLOs (Table 1's [register] call),
    then issue logical-block reads and writes; responses flow back over
    the same connection.  Each tenant is served by exactly one thread
    (paper §4.1 limitation).

    The server keeps one record per tenant id: its thread, its
    connection count, its completions, its NEG_LIMIT notifications and
    its barrier gate; an in-flight request carries the record, so a
    response needs no lookup.  Connections are counted per thread for
    the LLC-pressure model, kept incrementally: a register, join or
    unregister adjusts only the thread it touches.
    Token rates are pushed through each thread's own scheduler sets (the
    BE share to its BE tenants, LC repricing to its LC tenants), so no
    registration walks the server's tenant table. *)

open Reflex_engine
open Reflex_net
open Reflex_proto

type t

val create :
  Sim.t ->
  fabric:Fabric.t ->
  ?profile:Reflex_flash.Device_profile.t ->
  (* default device A *)
  ?n_threads:int ->
  (* dataplane threads, default 1 *)
  ?costs:Costs.t ->
  ?acl:Acl.t ->
  (* default permissive *)
  ?qos:bool ->
  (* default true; false disables the QoS scheduler (Figure 5's
     "I/O sched disabled"): tenants get unbounded token rates and requests
     flow to the device unthrottled *)
  ?neg_limit:float ->
  (* scheduler deficit limit, default -50 tokens — for ablations *)
  ?donate_fraction:float ->
  (* donation share above POS_LIMIT, default 0.9 — for ablations *)
  ?cost_model:Reflex_qos.Cost_model.t ->
  (* override the device-derived request cost model — for ablations *)
  ?seed:int64 ->
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  (* observability sink, default disabled.  When enabled the server
     threads it through the device, every dataplane thread and the QoS
     schedulers: lifecycle spans ([Server_rx] ... [Tx_resp]), scheduler
     decision logging, per-tenant latency histograms and an
     [qos/t<ID>/slo_headroom_us] gauge for LC tenants. *)
  unit ->
  t

(** The server's network endpoint; clients connect to it. *)
val host : t -> Fabric.host

val device : t -> Reflex_flash.Nvme_model.t
val control_plane : t -> Control_plane.t

(** [accept t conn] attaches an incoming connection: the server starts
    handling protocol messages arriving on it. *)
val accept : t -> Message.t Tcp_conn.t -> unit

(** {1 Observability} *)

val n_threads : t -> int

val requests_completed : t -> int

(** Times the QoS scheduler found this tenant past its token deficit
    limit (NEG_LIMIT) — the §3.2.2 control-plane notification.  A
    tenant whose count keeps climbing bursts above its reservation and
    should renegotiate its SLO (§4.3). *)
val deficit_notifications : t -> tenant:int -> int
val tenant_completed : t -> tenant:int -> int

(** Cumulative tokens spent across threads (take deltas for windowed
    rates). *)
val tokens_spent : t -> float

(** Cumulative weighted tokens one tenant's submitted requests have cost
    (0 for unknown tenants).  Windowed deltas of this against the
    device's {!Reflex_flash.Device_profile.knee_token_rate} drive the
    monitoring layer's load-knee detector. *)
val tenant_tokens_submitted : t -> tenant:int -> float

val thread_utilizations : t -> float list
val registered_tenants : t -> int

(** Requests currently inside the server, wherever they sit: unparsed
    receive-ring entries, software-queued requests awaiting tokens, and
    in-flight NVMe commands, summed across threads.  O(tenants) — the
    probe-path backlog signal sampled by the rack-level load balancers
    ([lib/rack]), not a per-cycle counter. *)
val queue_depth : t -> int

(** The server's one stage sink (lane = its host's fabric id), shared by
    every dataplane thread.  Telemetry is attached at creation when
    enabled; a rack tracer attaches with [Reflex_obs.Stage.attach]. *)
val stages : t -> Reflex_obs.Stage.sink

(** {1 Resilience hooks}

    Driven by [Reflex_faults] — fault injection on the dataplane and the
    control plane's reaction to device degradation. *)

(** Occupy one dataplane thread's core with [duration] of high-priority
    foreign work (interrupt storm, noisy co-tenant).
    @raise Invalid_argument if [thread] is out of range. *)
val inject_thread_stall : t -> thread:int -> duration:Time.t -> unit

(** Degradation re-pricing: scale the control plane's usable capacity by
    the device's current effective capacity (fraction of healthy,
    full-speed dies), floored at 0.05 so a fully-failed device degrades
    rather than zeroes out, and re-push every tenant's token rate.
    Admission decisions, BE fair shares and LC reservations all reflect
    the reduced capacity immediately; a healthy device restores full
    capacity.  The fault injector calls it on every die failure,
    slowdown and recovery; the monitor's [Reprice_for_device]
    remediation calls it too. *)
val reprice_from_device : t -> unit
