(** Continuous cost profiler: per-subsystem minor-allocation attribution
    for the simulator's own host cost.

    It reads [Gc.minor_words] and no clock.  A minor-word count is exact
    and repeats bit for bit for a seed and a build profile, so two runs
    of one scenario print the same profile.  The counts still describe
    the host, not the model: they never feed back into simulation state
    or into a byte-identity-checked render, and they change with the
    build profile and the compiler.  They are exported only through
    gauges, Prometheus, and the [reflex_sim obs] cost table.

    Scopes are coarse: [enter]/[leave] pairs wrap the scheduler round
    ([Qos]), NVMe submission ([Flash]), TCP sends ([Net]), the metrics
    sampler ([Telemetry]), the monitor tick ([Monitor]), and — from the
    harness side — the whole [Sim.run] loop ([Engine]).  Open scopes
    form a stack of at most 16: each [leave] closes the innermost one,
    and the words of a nested scope count in its own bucket only, not in
    the enclosing one ([Flash] words granted inside a [Qos] round are
    not [Qos] words).  Every bucket holds {e self} words, so the buckets
    sum to the words inside the outermost scopes. *)

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

(** Open a scope.  One minor-words read; no allocation.  Raises
    [Invalid_argument] when 16 scopes are already open. *)
val enter : t -> Subsystem.t -> unit

(** Close the innermost open scope and add its self words to the
    subsystem's bucket.  An enabled [enter]/[leave] pair adds no words
    of its own to the count. *)
val leave : t -> Subsystem.t -> unit

(** Accumulated self minor words / scope count per subsystem. *)
val minor_words : t -> Subsystem.t -> float

val calls : t -> Subsystem.t -> int

(** [(name, self_words, share)] rows, one per subsystem in declaration
    order, with shares normalised over the sum of the buckets. *)
val shares : t -> (string * float * float) list

(** Human-readable table of {!shares} plus scope counts. *)
val report : t -> string
