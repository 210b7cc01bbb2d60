(** Figure 5: performance isolation with the QoS scheduler.

    Four tenants share one ReFlex server on device A.  A and B are
    latency-critical (95th-percentile read latency of 500us; A reserves
    120K IOPS of 100%% reads, B 70K IOPS at 80%% reads); C and D are
    best-effort (95%% and 25%% reads).  Scenario 1 drives A and B at their
    full reservations; Scenario 2 has B issue only 45K IOPS, freeing
    tokens for the best-effort tenants.  Each scenario runs with the I/O
    scheduler disabled and enabled. *)

type row = {
  scenario : int;
  sched : bool;
  tenant : string;
  p95_read_us : float;
  achieved_kiops : float;
  slo_kiops : float option;  (** LC reservation, for reference *)
}

val run : ?mode:Common.mode -> unit -> row list
val to_table : row list -> Reflex_stats.Table.t

(** Acceptance rows: A and B meet the 500us SLO at their reservations
    only with the scheduler on; C gets over 3x D's IOPS; work conserved. *)
val checks : row list -> Identity.check list
