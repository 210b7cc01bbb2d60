(** I/O request descriptors shared by the Flash model, the QoS scheduler
    and the wire protocol. *)

type kind = Read | Write

(** Logical-block size used for cost accounting: the paper's devices
    operate at 4KB granularity. *)
val lba_size : int

(** [sectors_of_bytes b] is [ceil (b / 4KB)], with a minimum of 1: requests
    of 4KB and smaller cost the same (paper §3.2.1). *)
val sectors_of_bytes : int -> int
