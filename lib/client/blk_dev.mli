(** The remote block-device driver for legacy Linux applications (paper
    §4.2).

    Implements the blk-mq shape: one hardware context per client core,
    each with its own socket to the ReFlex server and a kernel thread that
    receives and completes responses.  Block I/O (bio) requests are issued
    directly, without coalescing, split into 4KB logical blocks; the bio
    completes when its last block does.  The Linux TCP stack limits each
    context to ~70K messages/s, which is why FIO needs several threads to
    saturate a 10GbE link (§5.6). *)

open Reflex_engine
open Reflex_flash

type t

(** [create sim fabric ~server_host ~accept ~n_contexts ~tenant k]
    registers [tenant] (best-effort by default) on every context's
    connection and calls [k] when the device is ready.  All contexts share
    one client machine (NIC).  Works against any protocol-speaking server
    via its [accept] entry point. *)
val create :
  Sim.t ->
  Reflex_net.Fabric.t ->
  server_host:Reflex_net.Fabric.host ->
  accept:(Reflex_proto.Message.t Reflex_net.Tcp_conn.t -> unit) ->
  n_contexts:int ->
  tenant:int ->
  ?slo:Reflex_proto.Message.slo ->
  ?name:string ->
  ?retry:Retry.policy ->
  (* default none; with a policy every context arms per-attempt deadlines
     and retries with exponential backoff (see {!Client_lib.connect}) *)
  ?retry_seed:int64 ->
  (* base seed for the contexts' backoff-jitter streams (context [i] uses
     [retry_seed + i]) *)
  unit ->
  (t -> unit) ->
  unit

(** [submit_bio t ~kind ~lba ~bytes k] issues one block request.  Requests
    larger than 4KB are split into 4KB blocks issued round-robin across
    contexts; [k ~latency] fires when all blocks complete. *)
val submit_bio : t -> kind:Io_op.kind -> lba:int64 -> bytes:int -> (latency:Time.t -> unit) -> unit

val n_contexts : t -> int
val bios_completed : t -> int
