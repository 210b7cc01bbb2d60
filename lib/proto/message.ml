type status = Ok | Denied | No_capacity | Bad_request | Out_of_range | Timed_out

let status_to_string = function
  | Ok -> "ok"
  | Denied -> "denied"
  | No_capacity -> "no-capacity"
  | Bad_request -> "bad-request"
  | Out_of_range -> "out-of-range"
  | Timed_out -> "timed-out"

type slo = { latency_us : int; iops : int; read_pct : int; latency_critical : bool }

let best_effort_slo = { latency_us = 0; iops = 0; read_pct = 100; latency_critical = false }

type t =
  | Register of { tenant : int; slo : slo }
  | Unregister of { handle : int }
  | Read_req of { handle : int; req_id : int64; lba : int64; len : int }
  | Write_req of { handle : int; req_id : int64; lba : int64; len : int }
  | Barrier_req of { handle : int; req_id : int64 }
  | Registered of { handle : int; status : status }
  | Unregistered of { handle : int }
  | Read_resp of { req_id : int64; status : status; len : int }
  | Write_resp of { req_id : int64; status : status }
  | Barrier_resp of { req_id : int64 }
  | Error_resp of { req_id : int64; status : status }

let payload_bytes = function
  | Write_req { len; _ } -> len
  | Read_resp { status = Ok; len; _ } -> len
  | Read_resp _ -> 0
  | Register _ | Unregister _ | Read_req _ | Barrier_req _ | Registered _ | Unregistered _
  | Write_resp _ | Barrier_resp _ | Error_resp _ ->
    0
