(** Simulated NVMe Flash device.

    The model that gives rise to the paper's Figure 1 behaviour:

    - [n_dies] parallel service units behind a shared dispatch queue;
    - reads occupy a die at {e high} priority ([t_read] per 4KB, halved
      under a pure-read load — the C(read, 100%) discount);
    - writes acknowledge quickly from a DRAM buffer but enqueue
      [write_cost x t_read] of {e low}-priority backend work (program +
      wear leveling), plus periodic long erase bursts;
    - service is non-preemptive, so reads queue behind in-flight programs
      and erases — that is read/write interference, and it is why tail
      read latency depends on both total load and read/write ratio. *)

open Reflex_engine

type t

(** [telemetry] (default disabled) registers [flash/...] gauges
    (write-buffer occupancy, completions, die utilization) and records
    per-op service latency into the [flash/read_ns] / [flash/write_ns]
    histograms; when disabled the completion path pays one boolean test. *)
val create :
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  Sim.t ->
  profile:Device_profile.t ->
  prng:Prng.t ->
  t

val profile : t -> Device_profile.t

(** [submit t ~kind ~bytes cb] issues an I/O; [cb ~latency] fires at
    completion (for writes: at DRAM-buffer acknowledgement). *)
val submit : t -> kind:Io_op.kind -> bytes:int -> (latency:Time.t -> unit) -> unit

(** True when a read arriving now would see the pure-read fast path. *)
val read_only_mode : t -> bool

(** Completed reads / writes since creation. *)
val reads_completed : t -> int

val writes_completed : t -> int

(** Write-buffer occupancy (for observability and tests). *)
val write_buffer_used : t -> int

(** Die-busy fraction since creation. *)
val utilization : t -> float

(** {1 Fault injection}

    Hooks driven by [Reflex_faults.Injector].  The device carries a
    single [faulty] guard: until one of these mutators arms it, the
    request hot path is byte-identical (including PRNG draw order) to a
    device without fault support, so fault-free runs reproduce pre-fault
    results exactly. *)

(** Mark a die failed: it is excluded from routing (requests remap to the
    next healthy die, as a controller remapping to spare blocks would).
    Idempotent. @raise Invalid_argument if [die] is out of range. *)
val fail_die : t -> die:int -> unit

(** Undo [fail_die].  Idempotent. *)
val restore_die : t -> die:int -> unit

(** Multiply every service on [die] by [factor] (wear-out, thermal
    throttling, firmware pauses).  [factor = 1.0] restores normal speed.
    @raise Invalid_argument if [factor < 1.0]. *)
val set_die_slowdown : t -> die:int -> factor:float -> unit

(** [gc_storm t ~duration ~bursts_per_die] queues [bursts_per_die] extra
    low-priority erase bursts on every healthy die, evenly spaced over
    [duration] starting now.  Draws nothing from the device PRNG. *)
val gc_storm : t -> duration:Time.t -> bursts_per_die:int -> unit

(** Currently-failed die count. *)
val failed_dies : t -> int

(** Usable fraction of nominal capacity under current die health (failed
    dies contribute 0, slowed dies 1/slowdown); 1.0 when healthy.  The
    control plane's degradation re-pricing consumes this. *)
val effective_capacity : t -> float

(** Total injected GC-storm erase bursts (observability). *)
val gc_storm_bursts : t -> int
