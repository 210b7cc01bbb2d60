(** The datacenter network: hosts with NICs on a switched 10GbE fabric.

    Models the paper's testbed (§5.1): Intel 82599ES 10GbE NICs through an
    Arista switch, jumbo frames, LRO/GRO off, 20us interrupt coalescing on
    Linux endpoints.  Each host has full-duplex tx/rx links whose
    serialization enforces the 10GbE bandwidth ceiling — this is what caps
    4KB IOPS at the NIC before the Flash device saturates (§5.1 "I/O
    size").

    A message in flight is a slot in the fabric's message arena ([int]
    arrays: source and destination host ids, bytes, serialization ns, a
    duplicate flag, and the delivery as a posted handler and argument).
    Each link is a busy bit and a FIFO ring of queued message ids.  The
    three hops — tx link done, wire arrival, rx link done — and the
    delivery are {!Sim.post_after} events, so a message allocates no
    closure and no job record.  A finishing link starts its next queued
    message before the finished one moves on. *)

open Reflex_engine

type t
type host

(** [create sim ?bandwidth_gbps ()] (default 10 Gb/s).  Fixed delays
    (1.2us through the switch, 0.7us per NIC crossing) add to link
    serialization and the endpoints' stack costs. *)
val create : Sim.t -> ?bandwidth_gbps:float -> unit -> t

val sim : t -> Sim.t

val add_host : t -> name:string -> stack:Stack_model.t -> host

(** The host's index in [add_host] order on its fabric: the request-trace
    lane of the server it runs (see [Reflex_obs.Stage]). *)
val host_id : host -> int

val host_name : host -> string
val host_stack : host -> Stack_model.t

(** [post_transmit t ~src ~dst ~bytes h arg] delivers [bytes] from [src]
    to [dst]: serialization on the source tx link, NIC+switch
    propagation, serialization on the destination rx link, then the
    destination stack's receive delay (coalescing, wakeups).  The
    delivery is the {!Sim.handler} [h] applied to [arg], posted once (twice
    for an injected duplicate). *)
val post_transmit : t -> src:host -> dst:host -> bytes:int -> int -> int -> unit

(** [transmit t ~src ~dst ~bytes k] is {!post_transmit} with the closure
    [k] as the delivery: it runs once per delivery. *)
val transmit : t -> src:host -> dst:host -> bytes:int -> (unit -> unit) -> unit

(** Cumulative bytes sent by a host (for bandwidth accounting). *)
val bytes_sent : host -> int

val bytes_received : host -> int

(** Seconds to serialize [bytes] at line rate — the bandwidth ceiling. *)
val serialization_time : t -> bytes:int -> Time.t

(** {1 Fault injection}

    Hooks driven by [Reflex_faults.Injector].  Until [set_fault_prng] is
    called the transmit path is byte-identical (including PRNG draw
    order) to a fabric without fault support.  The fault PRNG is owned by
    the injector, never split from the simulation's root stream, so
    arming faults does not perturb other components' randomness. *)

(** Arm the fault path with the injector's PRNG (used for loss/dup
    Bernoulli draws).  Must be called before the probabilities below have
    any effect. *)
val set_fault_prng : t -> Reflex_engine.Prng.t -> unit

(** Link flap: every transmission starting before [until] stalls until
    [until] (TCP keeps the segment and sends it when the link returns).
    Pass a past time (e.g. [Time.zero]) to end the flap. *)
val set_link_down_until : t -> until:Time.t -> unit

(** Packet loss, modeled as TCP retransmission: each message is
    independently charged one [rto] delay with probability [prob].  The
    stream never drops a segment — it arrives an RTO later, which is what
    the receiver of a reliable byte stream observes.
    @raise Invalid_argument unless [0 <= prob < 1]. *)
val set_loss : t -> prob:float -> rto:Time.t -> unit

(** Duplicate delivery: each message is delivered twice with probability
    [prob] (receive-side reassembly suppresses the copy).
    @raise Invalid_argument unless [0 <= prob < 1]. *)
val set_dup : t -> prob:float -> unit
