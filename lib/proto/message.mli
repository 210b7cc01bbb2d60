(** ReFlex wire messages (client <-> server).

    Mirrors the system calls and event conditions of the paper's Table 1:
    tenants register with an SLO and then issue logical-block reads and
    writes; the server answers with completions or errors. *)

type status =
  | Ok
  | Denied  (** ACL rejected the connection/tenant *)
  | No_capacity  (** SLO not admissible (paper: "out of resources") *)
  | Bad_request
  | Out_of_range  (** LBA outside the tenant's namespace *)
  | Timed_out
      (** client-side: the request deadline expired and the retry budget
          is exhausted (never produced by the server) *)

val status_to_string : status -> string

(** Service-level objective carried in a register message. *)
type slo = {
  latency_us : int;  (** p95 read-latency bound; 0 for best-effort *)
  iops : int;  (** reserved IOPS; 0 for best-effort *)
  read_pct : int;  (** declared read percentage, 0..100 *)
  latency_critical : bool;
}

val best_effort_slo : slo

type t =
  | Register of { tenant : int; slo : slo }
  | Unregister of { handle : int }
  | Read_req of { handle : int; req_id : int64; lba : int64; len : int }
  | Write_req of { handle : int; req_id : int64; lba : int64; len : int }
  | Barrier_req of { handle : int; req_id : int64 }
      (** §4.1 extension: completes only after every I/O the tenant issued
          before it has completed; I/Os issued after it wait for it. *)
  | Registered of { handle : int; status : status }
  | Unregistered of { handle : int }
  | Read_resp of { req_id : int64; status : status; len : int }
  | Write_resp of { req_id : int64; status : status }
  | Barrier_resp of { req_id : int64 }
  | Error_resp of { req_id : int64; status : status }

(** Payload bytes that accompany the message on the wire (write request
    data, read response data); headers themselves are {!Codec.header_size}. *)
val payload_bytes : t -> int
