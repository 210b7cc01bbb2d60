(** The user-level ReFlex client library (paper §4.2).

    One instance models one client thread: it owns a TCP connection to a
    ReFlex server and a CPU core on which every sent and received message
    is charged its network stack's per-message cost — this is what limits
    a Linux client thread to ~70K messages/s at 4KB while an IX client
    sustains over a million.

    Latencies reported to completion callbacks are end-to-end: from the
    moment the application issues the operation (including client-side
    queueing) to the completion callback. *)

open Reflex_engine
open Reflex_net
open Reflex_proto

type t

(** [connect sim fabric ~server_host ~accept ~stack ()] opens a
    connection to any protocol-speaking server: [accept] is the server's
    accept entry point (e.g. [Reflex_core.Server.accept srv]); it is
    called with the new connection.  Pass [~host] to share one machine
    (NIC) between several client threads. *)
val connect :
  Sim.t ->
  Fabric.t ->
  server_host:Fabric.host ->
  accept:(Message.t Tcp_conn.t -> unit) ->
  stack:Stack_model.t ->
  ?host:Fabric.host ->
  ?name:string ->
  ?retry:Retry.policy ->
  (* default none: requests wait forever, exactly the paper's client.
     With a policy, each attempt carries a deadline; on expiry the
     request is re-issued under a fresh id after an exponential jittered
     backoff, and completes with [Message.Timed_out] once the budget is
     exhausted.  Late responses to abandoned attempts are dropped. *)
  ?retry_seed:int64 ->
  (* seed of the client-private backoff-jitter stream (give each client
     its own so schedules stay independent); default a fixed constant *)
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  (* observability sink, default disabled; when enabled the client
     records the [Client_submit]/[Client_complete] lifecycle spans, the
     connection counts wire messages, and timeouts/retries tick the
     world counters [client/timeouts] / [client/retries] *)
  unit ->
  t

(** [register t ~tenant ?slo k] registers this connection for [tenant],
    creating it with [slo] (default: best-effort) if new.  [k] receives
    the server's verdict. *)
val register : t -> tenant:int -> ?slo:Message.slo -> (Message.status -> unit) -> unit

(** Registered tenant handle, once registration succeeded. *)
val handle : t -> int option

(** [read t ~lba ~len k] — [k status ~latency] fires on completion.
    Raises [Failure] if the connection has not registered. *)
val read : t -> lba:int64 -> len:int -> (Message.status -> latency:Time.t -> unit) -> unit

val write : t -> lba:int64 -> len:int -> (Message.status -> latency:Time.t -> unit) -> unit

(** [barrier t k] — completes only after every earlier operation on this
    tenant has; later operations wait for it (ordering extension, paper
    §4.1). *)
val barrier : t -> (Message.status -> latency:Time.t -> unit) -> unit

val unregister : t -> (unit -> unit) -> unit

(** The request id the next issued operation will carry.  Read immediately
    before {!read}/{!write} to correlate that operation with server-side
    observability (e.g. rack hop tracing) without changing the wire
    protocol. *)
val next_req_id : t -> int64

(** Requests issued but not yet completed. *)
val inflight : t -> int

(** Attempts re-issued after a deadline expiry (0 without a retry
    policy). *)
val retries : t -> int

(** Per-attempt deadline expiries, including the final one before a
    [Timed_out] completion. *)
val timeouts : t -> int
