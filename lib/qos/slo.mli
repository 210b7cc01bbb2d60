(** Service-level objectives (paper §3.2).

    A latency-critical (LC) tenant reserves a tail-read-latency bound at a
    given IOPS and read/write ratio; a best-effort (BE) tenant
    opportunistically uses whatever throughput is left. *)

type tenant_class = Latency_critical | Best_effort

type t = {
  klass : tenant_class;
  latency_us : int;  (** p95 read-latency bound (LC only) *)
  iops : float;  (** reserved IOPS (LC only) *)
  read_pct : int;  (** declared read percentage, 0..100 *)
}

(** [latency_critical ~latency_us ~iops ~read_pct] — e.g. the paper's
    example tenant: 50K IOPS, 200us p95, 80% reads.
    Raises [Invalid_argument] on non-positive bounds or bad percentages. *)
val latency_critical : latency_us:int -> iops:float -> read_pct:int -> t

val best_effort : ?read_pct:int -> unit -> t

val is_latency_critical : t -> bool

(** Declared read ratio in [0, 1]. *)
val read_ratio : t -> float
