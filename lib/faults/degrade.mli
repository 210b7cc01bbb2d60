(** SLO-preserving degradation reactions (the resilience half of the
    subsystem).

    When the device loses capacity — a die fails, or slows down — the
    control plane must shed reserved rate before latency SLOs collapse.
    These helpers implement the reaction policies; the {!Injector}
    invokes {!reprice_for_device} automatically when its target has a
    server and a device, and experiments may layer demotion or re-placement
    on top. *)

open Reflex_core
open Reflex_qos

(** Re-price the server's control plane from its device's current
    effective capacity (fraction of healthy, full-speed dies), floored
    at 0.05 so a fully-failed device degrades rather than zeroes out.
    Pushes updated token rates to every dataplane thread. *)
val reprice_for_device : Server.t -> unit

(** Demote one latency-critical tenant to best-effort in place: its
    queue backlog migrates, its reservation is released, and it
    re-registers at the BE fair share.  Returns [false] for unknown
    tenants; demoting a BE tenant is a no-op returning [true]. *)
val demote : Server.t -> tenant:int -> bool

(** Demote LC tenants — loosest latency SLO first — until the summed LC
    reservations fit within [margin] (default 0.85) of the degraded
    token rate.  Returns the demoted tenant ids in demotion order
    (empty when already sustainable). *)
val demote_until_sustainable : ?margin:float -> Server.t -> int list

(** Re-place a tenant on the best server excluding a (failed or
    degraded) one: [replace gc ~slo ~excluding] is
    {!Global_control.place_excluding}. *)
val replace :
  Global_control.t -> slo:Slo.t -> excluding:string -> Global_control.placement option
