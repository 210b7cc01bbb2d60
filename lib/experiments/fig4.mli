(** Figure 4: p95 latency versus throughput for 1KB read-only requests —
    local SPDK, ReFlex, and the libaio server, each with 1 and 2 server
    threads.  Headline: ReFlex serves ~850K IOPS on one core and
    saturates the 1M-IOPS device with two, while the libaio server manages
    ~75K IOPS per core. *)

type row = {
  system : string;  (** "Local" | "ReFlex" | "Libaio" *)
  threads : int;
  offered_kiops : float;
  achieved_kiops : float;
  p95_us : float;
}

val run : ?mode:Common.mode -> unit -> row list
val to_table : row list -> Reflex_stats.Table.t

(** Acceptance row: the ReFlex one-thread sweep's peak achieved KIOPS
    within 5% of the paper's ~850K IOPS per core. *)
val checks : row list -> Identity.check list
