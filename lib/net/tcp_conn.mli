(** A TCP connection between two hosts on the fabric.

    Carries typed messages (the simulator passes message values and
    charges the wire for their encoded size).  Guarantees per-direction
    FIFO delivery — the only ordering the paper's ReFlex provides (§4.1
    "Limitations").  The sender's transmit-path latency is applied here;
    the sender's CPU cost is charged by the sending component, since
    clients and servers model their cores differently.

    Each direction keeps its in-flight messages in a ring, and a
    message's steps are posted events on the connection's one
    {!Reflex_engine.Sim.handler}, so sending allocates nothing beyond
    the message value. *)

type 'a t

(** [telemetry] (default disabled) counts per-direction messages and
    out-of-order buffering into the world counters [net/to_server_msgs],
    [net/to_client_msgs] and [net/ooo_buffered]. *)
val connect :
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  Fabric.t ->
  client:Fabric.host ->
  server:Fabric.host ->
  'a t

(** Install the message handler on each side.  Messages delivered before a
    handler is installed are queued. *)
val set_server_handler : 'a t -> ('a -> size:int -> unit) -> unit

val set_client_handler : 'a t -> ('a -> size:int -> unit) -> unit

(** [send_to_server conn ~size msg] — [size] is the wire size in bytes. *)
val send_to_server : 'a t -> size:int -> 'a -> unit

val send_to_client : 'a t -> size:int -> 'a -> unit

val client_host : 'a t -> Fabric.host
val server_host : 'a t -> Fabric.host

(** Messages delivered so far in each direction. *)
val delivered_to_server : 'a t -> int

val delivered_to_client : 'a t -> int
