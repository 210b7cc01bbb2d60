(** Deterministic fault injection on the simulation clock.

    The injector arms a {!Fault_plan.t} against a {!target}: each window
    schedules an activation at [w.at] and a recovery at
    [w.at + w.duration].  Stochastic faults (packet loss, duplication)
    draw from the injector's own seeded PRNG, which is created from an
    explicit seed and never split from the simulation's root stream —
    arming a plan leaves every pre-existing component's random sequence
    untouched, so a run with an empty plan is byte-identical to a run
    without an injector, and the same (plan, seed) pair reproduces the
    same chaos exactly, including under domain-parallel sweeps. *)

open Reflex_engine
open Reflex_telemetry

type target

(** Bundle the components a plan may touch.  When [device] is omitted
    but [server] is given, the server's device is used; give [device]
    alone (no [server]) to fault a bare device.  Arming a plan
    whose windows need a component the target lacks raises
    [Invalid_argument] at activation time. *)
val target :
  sim:Sim.t ->
  ?device:Reflex_flash.Nvme_model.t ->
  ?fabric:Reflex_net.Fabric.t ->
  ?server:Reflex_core.Server.t ->
  ?gens:Reflex_client.Load_gen.t array ->
  ?telemetry:Telemetry.t ->
  unit ->
  target

type t

(** [arm tgt ~plan] validates [plan] and schedules every window.
    [seed] (default [0xFA175EED]) feeds the injector's private PRNG.
    When the target has a server, die failures and slowdowns re-price
    its control plane from its device ({!Reflex_core.Server.reprice_from_device})
    on activation and recovery. *)
val arm : ?seed:int64 -> target -> plan:Fault_plan.t -> t

(** Windows activated so far. *)
val injected : t -> int

(** Windows whose recovery has run so far. *)
val recovered : t -> int

(** Currently-active windows ([injected - recovered]). *)
val active : t -> int
