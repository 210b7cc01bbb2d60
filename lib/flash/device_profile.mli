(** Parameters describing one NVMe Flash device.

    Profiles {!device_a}, {!device_b} and {!device_c} correspond to the
    three devices of the paper's Figure 3.  Each is calibrated to the
    operating points reported there:

    - device A: ~1M read-only IOPS, write cost 10 tokens,
      C(read, r=100%) = 1/2 token, ~420K tokens/s at a 500us p95 SLO
    - device B: write cost 20 tokens, ~300K tokens/s saturation
    - device C: write cost 16 tokens, ~600K tokens/s saturation *)

open Reflex_engine

type t = {
  name : string;
  n_dies : int;  (** independent service units (channels x dies) *)
  t_read : Time.t;
      (** die occupancy of a 4KB read when the device sees a mixed
          (read+write) load; this is also the duration of "one token". *)
  ro_speedup : float;
      (** throughput factor for pure-read loads: occupancy becomes
          [t_read / ro_speedup].  2.0 for device A means
          C(read, 100%) = 1/2 token. *)
  read_pipeline : Time.t;
      (** fixed per-read latency outside die service (controller, DMA). *)
  t_write_ack : Time.t;  (** median DRAM-buffer write acknowledgement time. *)
  write_cost : float;
      (** backend die work per 4KB write, in tokens (multiples of
          [t_read]); 10/20/16 for devices A/B/C. *)
  erase_every : int;
      (** one garbage-collection erase burst per this many programs. *)
  erase_frac : float;
      (** fraction of write backend work spent in erase bursts (they are
          rare but long — the source of tail-latency blowup). *)
  service_sigma : float;  (** lognormal service-time noise. *)
  write_ack_sigma : float;  (** lognormal noise on the write acknowledgement. *)
  write_buffer_slots : int;  (** DRAM write-buffer entries (4KB each). *)
  ro_window : Time.t;
      (** a read arriving more than this after the last write sees the
          read-only fast path. *)
  sq_depth : int;  (** NVMe submission-queue depth per queue pair. *)
  wear : float;
      (** age multiplier on all die service times: 1.0 when new; grows as
          program/erase cycles accumulate.  The paper notes the cost model
          can be re-calibrated after deployment to account for wear
          (§3.2.1) — see {!with_wear} and {!Calibrate.fit_cost_model}. *)
}

(** The same device later in life: service times scaled by [wear]. *)
val with_wear : t -> wear:float -> t

val device_a : t
val device_b : t
val device_c : t

(** All bundled profiles. *)
val all : t list

(** Peak 4KB read IOPS under a pure-read load (dies / read-only occupancy),
    ignoring queueing: the device's nominal ceiling. *)
val read_only_iops : t -> float

(** Peak weighted tokens/sec under mixed load (dies / t_read). *)
val token_capacity : t -> float

(** Onset of the hockey-stick region of the latency-vs-throughput curve
    (Figures 1/3): beyond [frac] (default 0.8) of {!token_capacity},
    queueing dominates die service and p95 latency takes off.  The
    monitoring layer's load-knee detector flags tenants whose operating
    point (windowed weighted token rate, windowed p95) crosses this
    knee. *)
val knee_token_rate : ?frac:float -> t -> float
