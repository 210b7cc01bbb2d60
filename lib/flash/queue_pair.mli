(** An NVMe submission/completion queue pair.

    Each ReFlex dataplane thread owns one queue pair with direct access
    (paper §3.1).  Submissions are bounded by the profile's [sq_depth];
    completions accumulate in the completion queue until polled, matching
    the polling execution model. *)

open Reflex_engine

type t

val create : Nvme_model.t -> t

(** [submit t ~kind ~bytes ~cookie] returns [`Full] when the submission
    queue is at depth (the caller must retry later), [`Ok] otherwise.
    Allocates no closure: each submission slot's completion callback is
    built once. *)
val submit : t -> kind:Io_op.kind -> bytes:int -> cookie:int -> [ `Ok | `Full ]

(** [drain t ~max ~f] removes up to [max] completions oldest-first,
    applying [f] to each in place; returns the number drained.  This is
    the polling step of paper §3.2; it allocates nothing. *)
val drain :
  t -> max:int -> f:(cookie:int -> kind:Io_op.kind -> latency:Time.t -> unit) -> int

(** Commands submitted that the device has not yet completed. *)
val inflight : t -> int

(** Completions waiting to be polled. *)
val completions_pending : t -> int

(** [set_completion_hook t f] — [f] runs whenever a completion lands in
    the completion queue.  A polling dataplane thread uses this as its
    "next poll iteration notices the CQ entry" signal. *)
val set_completion_hook : t -> (unit -> unit) -> unit
