(** The global token bucket shared by all dataplane threads (paper
    §3.2.2/§4.1).

    LC tenants donate spare tokens here; BE tenants on any thread may
    claim them.  Threads access it with atomic read-modify-write
    operations in the paper; in this single-threaded simulation the
    scheduler round updates the level in place through {!cell}.  The
    bucket resets once every thread has completed at least one
    scheduling round since the last reset — the last thread to mark
    performs the reset — bounding the burst BE tenants can accumulate. *)

type t

val create : n_threads:int -> t

(** The bucket's level as a flat cell.  The scheduler round donates into
    it (an increment, positive amounts only) and BE tenants take from it
    (a decrement bounded below by zero) in place, so no float crosses a
    module boundary on the round. *)
val cell : t -> Reflex_engine.Cell.t

val level : t -> float

(** Mark that [thread_id] finished a scheduling round.  When all threads
    have marked since the last reset, the bucket is zeroed.  Returns [true]
    when this call performed the reset.  Allocation-free; raises
    [Invalid_argument] for a [thread_id] outside [0, n_threads). *)
val mark_round : t -> thread_id:int -> bool

(** Total resets so far (observability). *)
val resets : t -> int
