(** Local Flash access through SPDK (the paper's best-case baseline,
    §5.1): the application maps NVMe queues directly — no network, no
    filesystem, no block layer.  Per-I/O CPU on the submitting thread is
    what limits a single core to ~870K IOPS (§5.3): 0.5us to submit and
    0.65us to complete each I/O. *)

open Reflex_engine
open Reflex_flash

type t

val create :
  Sim.t ->
  ?profile:Device_profile.t ->
  ?n_threads:int ->
  ?seed:int64 ->
  unit ->
  t

(** [submit t ~kind ~bytes k] — charged to a thread (round-robin), then to
    the device; [k ~latency] measures issue-to-completion. *)
val submit : t -> kind:Io_op.kind -> bytes:int -> (latency:Time.t -> unit) -> unit

val completed : t -> int
