(** Request stages: the one vocabulary, tiling rule and attribution rule
    shared by every request tracer, and the stage sink a server stamps
    through.

    A request is identified by [(lane, tenant, req)]: the lane is the
    serving host's fabric id, so one tenant's connections to different
    servers never share a key although their request ids collide.

    {!request_path} is the per-server path telemetry records;
    {!rack_path} is the rack tracer's coarser refinement of it: issue and
    reply are [Client_submit]/[Client_complete], submit and complete are
    the server's own NVMe stamps, and [Pick] (the balancing decision) is
    the one rack-only stage. *)

open Reflex_engine

type t =
  | Client_submit  (** client library issued the request *)
  | Server_rx  (** dataplane pulled it off the rx ring *)
  | Sched_enqueue  (** parsed and enqueued with the QoS scheduler *)
  | Granted  (** token grant: scheduler released it for submission *)
  | Nvme_submit  (** accepted by the NVMe submission queue *)
  | Nvme_complete  (** flash completion observed on the CQ *)
  | Tx_resp  (** response handed to the NIC/TCP layer *)
  | Client_complete  (** response delivered back to the client *)
  | Pick  (** rack balancing decision *)

val to_int : t -> int
val of_int : int -> t
val name : t -> string

(** The eight per-server stages in hop order; [request_path.(i)] has
    {!to_int} [i]. *)
val request_path : t array

(** [component_names.(i)] names the span from [request_path.(i)] to
    [request_path.(i+1)]. *)
val component_names : string array

val component_count : int

(** The rack's pick / issue / submit / complete / reply stamps. *)
val rack_path : t array

(** [tile ~stamps ~comps ~off] writes the deltas between consecutive
    [stamps] (one request's times along a stage list, in ns) to
    [comps.(off) ..]; they telescope to last minus first.  A missing
    (negative) stamp first takes the next present stamp's time, in place,
    so its gap is charged to the component before it; the first and last
    stamps must be present.  Returns the number of stamps filled. *)
val tile : stamps:int array -> comps:int array -> off:int -> int

(** Index of the largest entry, ties to the earlier one: the dominant
    component of a request's deltas, and the majority of a count array. *)
val dominant : int array -> int

(** {1 Stage sink}

    A server owns one sink and its dataplane threads call {!stamp} once
    per stage, behind an {!armed} test.  Consumers {!attach}: telemetry
    writes the span, a rack tracer correlates the stamp to its slot. *)

type write = lane:int -> tenant:int -> req:int64 -> now:Time.t -> t -> unit
type sink

(** A sink for lane [lane] that no consumer wants stamps from. *)
val sink : lane:int -> sink

(** Add a consumer of [stages]; consumers run in attach order. *)
val attach : sink -> stages:t list -> write -> unit

(** Whether any consumer wants [stage]. *)
val armed : sink -> t -> bool

val lane : sink -> int
val stamp : sink -> tenant:int -> req:int64 -> now:Time.t -> t -> unit
