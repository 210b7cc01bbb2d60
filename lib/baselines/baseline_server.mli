(** Linux-based remote Flash servers: the iSCSI target and the
    libaio+libevent server of the paper's comparison (§5.1).

    Both speak the same wire protocol as ReFlex (so the same clients and
    block driver work against them) but differ fundamentally from the
    dataplane: requests are handled by conventional kernel-scheduled
    worker threads; there is {e no QoS scheduler} — requests go straight
    to the device in FIFO order — and every message pays Linux stack
    costs (interrupt coalescing, wakeups, and for iSCSI, protocol
    processing and kernel/user copies).  Per-core throughput: ~75K IOPS
    (libaio), ~70K (iSCSI). *)

open Reflex_engine
open Reflex_net
open Reflex_proto

type kind = Libaio | Iscsi

type t

val create :
  Sim.t ->
  fabric:Fabric.t ->
  kind:kind ->
  ?profile:Reflex_flash.Device_profile.t ->
  ?n_threads:int ->
  ?seed:int64 ->
  unit ->
  t

val host : t -> Fabric.host

(** Attach an incoming connection (assigned round-robin to a worker). *)
val accept : t -> Message.t Tcp_conn.t -> unit

val requests_completed : t -> int
