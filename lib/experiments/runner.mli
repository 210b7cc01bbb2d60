(** Multicore fan-out for the experiment harness.

    Every sweep point of the paper's evaluation is an independent,
    deterministically-seeded simulation ([Sim.t] plus its whole world),
    so sweeps are embarrassingly parallel.  [map] fans the points across
    OCaml 5 domains with a shared work-stealing index and merges results
    back {e in input order}, so tables are bit-identical to a serial run
    regardless of the job count (determinism is per-point, ordering is
    ours).

    The default job count is process-wide ({!set_default_jobs}) and
    starts at [Domain.recommended_domain_count ()].  A worker that
    raises aborts the sweep: remaining points are skipped and the first
    exception is re-raised on the caller after all domains join. *)

(** Set the process-wide default job count (clamped to >= 1), used when
    [?jobs] is omitted. *)
val set_default_jobs : int -> unit

(** [map ?jobs f xs] is [List.map f xs], computed on up to [jobs]
    domains (the caller participates), results in input order. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [concat_map ?jobs f xs] is [List.concat_map f xs] with the same
    fan-out and ordering guarantee as {!map}. *)
val concat_map : ?jobs:int -> ('a -> 'b list) -> 'a list -> 'b list
