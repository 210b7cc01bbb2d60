(** Inter-server link model for the rack topology.

    The fabric ([Reflex_net.Fabric]) already charges per-message NIC,
    switch and serialization delay between any two hosts; what it does
    not model is that a rack has {e per-port} propagation differences:
    cabling, PHY retiming and ToR pipeline depth give each server port a
    small fixed offset.  This module holds those offsets so the rack
    layer can charge an extra one-way delay when it steers a request to
    a particular server, making "which replica" a latency-relevant
    choice and not just a queueing one.

    Latencies are fixed at construction from the port index alone — no
    PRNG — so the matrix is deterministic and identical across runs and
    domains. *)

open Reflex_engine

type t

(** [create ~n ()] builds the latency table for an [n]-port rack.
    [switch] is the one-way ToR traversal (default 1us); each port adds
    a deterministic offset in [[0, port_spread)] (default spread 600ns)
    on top of [port_base] (default 300ns).
    @raise Invalid_argument when [n < 1]. *)
val create :
  ?switch:Time.t -> ?port_base:Time.t -> ?port_spread:Time.t -> n:int -> unit -> t

val n_ports : t -> int

(** One-way delay of port [i] alone (cable + PHY), exclusive of the
    switch hop. *)
val port_delay : t -> int -> Time.t

(** One-way ingress delay from the rack edge to server [i]:
    switch + port. This is what the balancer charges on dispatch. *)
val ingress : t -> int -> Time.t

(** Server-to-server one-way delay: [port src + switch + port dst];
    {!Time.zero} when [src = dst] (loopback never leaves the host). *)
val latency : t -> src:int -> dst:int -> Time.t
