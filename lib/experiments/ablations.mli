(** Ablation studies for the design choices the paper sets empirically
    (§3.2.2) or argues for qualitatively:

    - {b NEG_LIMIT} (paper: -50 tokens): the burst allowance that lets an
      LC tenant absorb short-term arrival noise.  Too shallow and a bursty
      LC tenant queues behind its own rate limiter; too deep and its
      bursts of expensive writes leak into co-tenants' tails.
    - {b donation fraction} (paper: 90%% above POS_LIMIT): how much of an
      idle LC tenant's balance flows to best-effort tenants.  Smaller
      fractions strand tokens and break work conservation.
    - {b adaptive batching cap} (paper: 64): trade-off between per-request
      CPU amortization (throughput) and queueing (tail latency).
    - {b request cost model}: what Figure 5 looks like if writes are
      priced like reads (C(write) = 1) — the scheduler admits ~10x too
      much write work and LC tails blow through their SLOs. *)

type neg_limit_row = {
  neg_limit : float;
  bursty_lc_p95_us : float;  (** Poisson LC tenant at its reservation *)
  victim_lc_p95_us : float;  (** co-located smooth LC tenant *)
}

type donation_row = {
  fraction : float;
  be_kiops : float;  (** best-effort throughput from donated tokens *)
}

type batch_row = {
  batch_cap : int;
  achieved_kiops : float;
  p95_us : float;
}

type cost_model_row = {
  config : string;  (** "calibrated (10 tokens/write)" | "naive (1)" *)
  lc_p95_us : float;
  lc_slo_met : bool;
  be_write_kiops : float;
}

val run_neg_limit : ?mode:Common.mode -> unit -> neg_limit_row list
val run_donation : ?mode:Common.mode -> unit -> donation_row list
val run_batching : ?mode:Common.mode -> unit -> batch_row list
val run_cost_model : ?mode:Common.mode -> unit -> cost_model_row list

(** Acceptance rows (NEG_LIMIT has none): donations feed BE tenants, no
    batching costs throughput and the tail, naive pricing blows the LC tail. *)
val donation_checks : donation_row list -> Identity.check list
val batching_checks : batch_row list -> Identity.check list
val cost_model_checks : cost_model_row list -> Identity.check list

val neg_limit_table : neg_limit_row list -> Reflex_stats.Table.t
val donation_table : donation_row list -> Reflex_stats.Table.t
val batching_table : batch_row list -> Reflex_stats.Table.t
val cost_model_table : cost_model_row list -> Reflex_stats.Table.t
