(** The QoS scheduling algorithm — a faithful port of the paper's
    Algorithm 1.

    Each dataplane thread owns one scheduler instance over its tenants.
    Per round: LC tenants receive tokens from their SLO rate and submit
    queued requests, allowed to burst into deficit down to NEG_LIMIT
    (default -50 tokens); balances above POS_LIMIT (the grant of the last
    three rounds) donate 90% to the shared {!Global_bucket}.  BE tenants
    then receive a fair share of unallocated throughput in round-robin
    order, may claim from the global bucket, submit only requests they can
    fully pay for, and may not hold tokens while idle (Deficit Round Robin
    inspired).  Finally the thread marks its round on the global bucket,
    whose periodic reset bounds BE bursts. *)

type 'a t

(** A request released by the scheduler for submission to the device. *)
type 'a submission = { tenant_id : int; cost : float; payload : 'a }

val create :
  ?neg_limit:float ->
  (* default -50 tokens *)
  ?donate_fraction:float ->
  (* default 0.9 *)
  global:Global_bucket.t ->
  thread_id:int ->
  ?notify_control_plane:(int -> unit) ->
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  (* default [Telemetry.disabled].  A round allocates nothing per tenant
     unless the telemetry's flight recorder is armed, which boxes the
     value of each decision it records.  When enabled, per-tenant
     token/backlog/grant/debit gauges are registered as [qos/t<ID>/...]. *)
  unit ->
  'a t

val add_tenant : 'a t -> 'a Tenant.t -> unit

(** Remove by id; queued requests are dropped. *)
val remove_tenant : 'a t -> int -> unit

val find_tenant : 'a t -> int -> 'a Tenant.t option
val tenants : 'a t -> 'a Tenant.t list

(** Visit the latency-critical members in insertion order, without
    building a list. *)
val iter_lc : 'a t -> ('a Tenant.t -> unit) -> unit

(** Visit the best-effort members in insertion order. *)
val iter_be : 'a t -> ('a Tenant.t -> unit) -> unit

val tenant_count : 'a t -> int

(** [enqueue t ~tenant_id ~cost req] places a request on the tenant's
    software queue.  Raises [Not_found] for an unknown tenant. *)
val enqueue : 'a t -> tenant_id:int -> cost:float -> 'a -> unit

(** Run one scheduling round at [now]; [submit] is called, in order, for
    every request released to the NVMe queue.  Returns the number of
    submissions. *)
val schedule : 'a t -> now:Reflex_engine.Time.t -> submit:('a submission -> unit) -> int

(** Total demand (tokens) sitting in this thread's tenant queues, clamped
    at zero.  O(1): a flat cell that every member tenant moves on each
    enqueue and dequeue (so it stays consistent even when a tenant's queue
    is drained directly).  A removed tenant gets a cell of
    its own, so its later enqueues do not move this one. *)
val backlog : 'a t -> float

(** [backlog t > 0.0], returned as a bool so the per-cycle idle check
    passes no float between modules. *)
val has_backlog : 'a t -> bool

(** Requests (not tokens) sitting in this thread's tenant software
    queues.  O(live tenants) sweep — a probe-path metric for the
    rack-level load balancers, not a per-cycle one ({!backlog} is the
    O(1) per-cycle aggregate). *)
val queue_depth : 'a t -> int
