(** Continuous cost profiler: per-subsystem minor-allocation attribution
    for the simulator's own host cost.

    It reads [Gc.minor_words] and no clock.  A minor-word count is exact
    and repeats bit for bit for a seed and a build profile, so two runs
    of one scenario print the same profile.  The counts still describe
    the host, not the model: they never feed back into simulation state
    or into a byte-identity-checked render, and they change with the
    build profile and the compiler.  They are exported only through
    gauges, Prometheus, and the [reflex_sim obs] cost table.

    Scopes are coarse and non-reentrant per subsystem: [enter]/[leave]
    pairs wrap the scheduler round ([Qos]), NVMe submission ([Flash]), TCP
    sends ([Net]), the metrics sampler ([Telemetry]), the monitor tick
    ([Monitor]), and — from the harness side — the whole [Sim.run] loop
    ([Engine]).  Nested scopes accumulate into their own buckets, so the
    [Engine] bucket encloses the rest; {!shares} reports Engine as the
    {e self} words left after subtracting the nested buckets. *)

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

(** Open a scope.  One minor-words read; no allocation. *)
val enter : t -> Subsystem.t -> unit

(** Close the matching scope and accumulate.  An enabled [enter]/[leave]
    pair adds no words of its own to the count. *)
val leave : t -> Subsystem.t -> unit

(** Accumulated minor words / scope count per subsystem. *)
val minor_words : t -> Subsystem.t -> float

val calls : t -> Subsystem.t -> int

(** [(name, self_words, share)] rows, one per subsystem in declaration
    order, with [Engine] reduced to its self words (total minus the
    nested subsystem buckets) and shares normalised over the total
    measured words. *)
val shares : t -> (string * float * float) list

(** Human-readable table of {!shares} plus scope counts. *)
val report : t -> string
