(** Continuous cost profiler: per-subsystem wall-time and minor-allocation
    attribution for the simulator's own host cost.

    This module deliberately breaks the "sim time only" rule that governs
    everything else in [lib/]: its whole purpose is to measure how much
    {e host} wall time and minor-heap allocation each subsystem burns (the
    question the ROADMAP's 100K-tenant item needs answered).  The numbers
    are therefore nondeterministic by design and must never feed back into
    simulation state or into any byte-identity-checked report — they are
    exported only through gauges, Prometheus, and the [reflex_sim obs]
    cost table.  The [det/clock] waiver for [lib/obs/] in [lint.manifest]
    records this contract.

    Scopes are coarse and non-reentrant per subsystem: [enter]/[leave]
    pairs wrap the scheduler round ([Qos]), NVMe submission ([Flash]), TCP
    sends ([Net]), the metrics sampler ([Telemetry]), the monitor tick
    ([Monitor]), and — from the harness side — the whole [Sim.run] loop
    ([Engine]).  Nested scopes accumulate into their own buckets, so the
    [Engine] bucket encloses the rest; {!shares} reports Engine as the
    {e self} time left after subtracting the nested buckets. *)

module Subsystem : sig
  type t = Engine | Qos | Flash | Net | Telemetry | Monitor | Other

  val count : int
  val to_int : t -> int
  val name : t -> string
  val all : t list
end

type t

(** Shared never-enabled instance: [enter]/[leave] are no-ops. *)
val disabled : t

val create : unit -> t
val enabled : t -> bool

(** Open a scope.  One monotonic ns clock read and one minor-words read;
    no allocation. *)
val enter : t -> Subsystem.t -> unit

(** Close the matching scope and accumulate. *)
val leave : t -> Subsystem.t -> unit

(** Accumulated wall seconds / minor words / scope count per subsystem. *)
val wall_s : t -> Subsystem.t -> float

val minor_words : t -> Subsystem.t -> float
val calls : t -> Subsystem.t -> int

(** [(name, self_wall_s, wall_share, minor_words)] rows, one per subsystem
    in declaration order, with [Engine] reduced to its self time (total
    minus the nested subsystem buckets) and shares normalised over the
    total measured wall time. *)
val shares : t -> (string * float * float * float) list

(** Human-readable table of {!shares} plus scope counts. *)
val report : t -> string
