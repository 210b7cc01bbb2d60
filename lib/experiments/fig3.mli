(** Figure 3: request cost models for devices A, B and C — p95 read
    latency versus weighted tokens/s for several read ratios and request
    sizes, plus the calibration fit (write cost, read-only read cost)
    that the QoS scheduler consumes. *)

type point = {
  device : string;
  label : string;  (** e.g. "100%rd (4KB)" *)
  weighted_ktokens : float;
  p95_read_us : float;
}

type fit_row = {
  fdevice : string;
  write_cost : float;  (** the paper's values are {!checks}' rows *)
  ro_read_cost : float;
  token_rate_at_1ms : float;
  r2 : float;
}

val run : ?mode:Common.mode -> unit -> point list * fit_row list
val to_tables : point list * fit_row list -> Reflex_stats.Table.t list

(** Acceptance rows: each device's C(write) within 15% of the paper's,
    and device A's C(read,100%) within 10%. *)
val checks : point list * fit_row list -> Identity.check list
