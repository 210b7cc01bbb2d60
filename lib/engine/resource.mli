(** A work-conserving single-server FIFO resource with two priority
    levels.

    Models any component that serves jobs one at a time: a CPU core, a
    Flash die, a kernel thread.  High-priority jobs always start before
    queued low-priority jobs, but service is non-preemptive: a long
    low-priority job (e.g. a Flash erase) blocks the server until it
    completes — this is exactly the mechanism behind read/write
    interference on Flash. *)

type t

type priority = High | Low

val create : Sim.t -> t

(** [submit t ~priority ~service f] enqueues a job needing [service] time;
    [f ()] runs when the job completes. *)
val submit : t -> ?priority:priority -> service:Time.t -> (unit -> unit) -> unit

(** Utilization in [0, 1] over the interval since creation. *)
val utilization : t -> float
