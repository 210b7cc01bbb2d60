(** The request cost model (paper §3.2.1).

    [cost = ceil(size / 4KB) * C(I/O type, r)] where one token is the cost
    of a 4KB random read under a mixed load.  Reads are discounted when
    the device-wide load is read-only (r = 100%); writes cost 10-20x. *)

type t = {
  write_cost : float;  (** C(write, r < 100%) in tokens *)
  ro_read_cost : float;  (** C(read, r = 100%) in tokens *)
}

(** Cost model from a device profile's nominal parameters. *)
val of_profile : Reflex_flash.Device_profile.t -> t

(** [request_cost t ~kind ~bytes ~read_only] in tokens.  [read_only] is
    whether the whole device currently sees a pure-read load. *)
val request_cost : t -> kind:Reflex_flash.Io_op.kind -> bytes:int -> read_only:bool -> float

(** Token rate that satisfies an LC reservation of [iops] at [read_ratio]
    (paper's example: 100K IOPS at 80% reads with write cost 10
    = 280K tokens/s).  Assumes mixed-load read cost of 1. *)
val weighted_rate : t -> iops:float -> read_ratio:float -> float
