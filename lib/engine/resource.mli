(** A work-conserving multi-server FIFO resource with two priority levels.

    Models any component that serves jobs one at a time per server: a CPU
    core ([servers = 1]), the set of Flash dies ([servers = n_dies]), a NIC
    link, a kernel thread.  High-priority jobs always start before queued
    low-priority jobs, but service is non-preemptive: a long low-priority
    job (e.g. a Flash erase) blocks its server until it completes — this is
    exactly the mechanism behind read/write interference on Flash. *)

type t

type priority = High | Low

(** [create sim ~servers] with [servers >= 1]. *)
val create : Sim.t -> servers:int -> t

(** [submit t ~priority ~service f] enqueues a job needing [service] time.
    When the job completes, [f ~started ~finished] runs; [started] is when
    service began (so [started - submit-time] is the queueing delay). *)
val submit :
  t -> ?priority:priority -> service:Time.t -> (started:Time.t -> finished:Time.t -> unit) -> unit

(** Jobs currently being served. *)
val busy : t -> int

(** Jobs waiting in the two queues (high, low). *)
val queued : t -> int * int

(** Utilization in [0, 1] over the interval since creation. *)
val utilization : t -> float

(** Total jobs completed. *)
val completed : t -> int
