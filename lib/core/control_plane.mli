(** The local control plane (paper §4.3).

    Owns the device's throughput-latency characterization and uses it to:
    admit or reject latency-critical tenants (the strictest latency SLO
    across LC tenants fixes the device's sustainable token rate); compute
    per-tenant token rates (LC: weighted SLO rate; BE: fair share of the
    unallocated rate).  The server places each new tenant on its
    least-loaded dataplane thread. *)

open Reflex_qos

type t

(** The device's sustainable token rate for a p95 read-latency SLO is
    {!default_token_rate_fn} of [profile]: an analytic stand-in for a
    measured {!Reflex_flash.Calibrate.max_token_rate} curve, matching the
    bundled device profiles (device A: ~429K tokens/s at 500us, ~539K at
    2ms; see DESIGN.md).  LC admission fills at most 0.85 of that rate. *)
val create :
  profile:Reflex_flash.Device_profile.t ->
  cost_model:Cost_model.t ->
  unit ->
  t

type admission = Admitted | Rejected_no_capacity | Rejected_duplicate

(** [admit t ~id ~slo] runs admission control and records the tenant.
    BE tenants are always admitted.  Admitting an id that is already
    registered returns [Rejected_duplicate] and leaves the existing
    registration untouched (re-registering requires {!forget} first). *)
val admit : t -> id:int -> slo:Slo.t -> admission

(** Non-mutating admission check — used by the global control plane to
    test placements without registering. *)
val can_admit : t -> slo:Slo.t -> bool

(** Spare LC capacity (tokens/s) at the strictest SLO that would result
    from adding [candidate] — the global placement score input. *)
val headroom_with : t -> candidate:Slo.t -> float

(** Remove a tenant's registration and release its reservation.
    Forgetting an unknown id is a no-op (the unregister path is
    idempotent: a retried unregister must not fail). *)
val forget : t -> id:int -> unit

val is_registered : t -> id:int -> bool

(** {1 Degradation re-pricing}

    The resilience layer (lib/faults) lowers the capacity factor when the
    device degrades — every admission decision, BE share and pushed token
    rate immediately reflects the reduced capacity — and restores it to
    1.0 on recovery. *)

(** Set the usable fraction of calibrated capacity.
    @raise Invalid_argument unless [0 < factor <= 1]. *)
val set_capacity_factor : t -> float -> unit

val capacity_factor : t -> float

(** Strictest (lowest) latency SLO across registered LC tenants. *)
val strictest_latency_us : t -> float option

(** Token generation rate for the device at the strictest current SLO. *)
val total_token_rate : t -> float

(** Sum of LC tenants' weighted reservations. *)
val lc_reserved_rate : t -> float

(** Fair per-tenant share of the unallocated rate for BE tenants. *)
val be_share : t -> float

(** Token rate for one registered tenant under current conditions. *)
val token_rate_for : t -> id:int -> float option

(** All registered tenant ids with their current token rates — pushed to
    dataplane threads after every registration change. *)
val current_rates : t -> (int * float) list

val registered_count : t -> int

(** True when every registered tenant declares a 100%%-read mix, in which
    case reservations are priced at C(read, 100%%). *)
val fleet_read_only : t -> bool

(** Registered LC tenants with their SLOs, loosest latency bound first
    (ties by id) — the order in which degradation-driven demotion sheds
    reservations. *)
val lc_tenants : t -> (int * Slo.t) list

(** The analytic device model: max weighted tokens/sec the device
    sustains at a p95 read-latency SLO of [latency_us]. *)
val default_token_rate_fn : Reflex_flash.Device_profile.t -> latency_us:float -> float
