(** Table 2: unloaded latency of 4KB random reads and writes at queue
    depth 1, across the six access paths the paper compares:
    local SPDK, iSCSI, libaio (Linux and IX clients), and ReFlex (Linux
    and IX clients). *)

type row = {
  path : string;
  read_avg_us : float;
  read_p95_us : float;
  write_avg_us : float;
  write_p95_us : float;
}

(** Paper-reported values for side-by-side comparison. *)
val paper : row list

val run : ?mode:Common.mode -> unit -> row list
val to_table : row list -> Reflex_stats.Table.t

(** Acceptance rows: the access-path ordering, ReFlex (IX)'s overhead
    over local in [12,32] us, and the Local (SPDK) and ReFlex (IX) cells
    each within 10% of {!paper}. *)
val checks : row list -> Identity.check list
