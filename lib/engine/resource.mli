(** A work-conserving single-server FIFO resource with two priority
    levels.

    Models any component that serves jobs one at a time: a CPU core, a
    kernel thread.  High-priority jobs always start before queued
    low-priority jobs, but service is non-preemptive: a long
    low-priority job blocks the server until it completes (the flash
    dies of [Reflex_flash.Nvme_model] follow the same discipline in
    their own op arena). *)

type t

type priority = High | Low

val create : Sim.t -> t

(** [submit t ~priority ~service f] enqueues a job needing [service] time;
    [f ()] runs when the job completes. *)
val submit : t -> ?priority:priority -> service:Time.t -> (unit -> unit) -> unit

(** Utilization in [0, 1] over the interval since creation. *)
val utilization : t -> float
