(** The global (cluster-level) control plane sketched in the paper's
    §4.3 as future work: it manages Flash across many ReFlex servers and
    decides where each tenant should live.  The rack layer ([lib/rack])
    builds its two-layer scheduler on top of this module: placement and
    per-server probes here, request-level balancing and migration there.

    Placement policy, following the paper's guidance:

    + only servers whose local control plane would admit the SLO are
      candidates;
    + among candidates, {e co-locate tenants with similar tail-latency
      requirements}: a strict tenant landing on a server of loose tenants
      drags everyone down to its token ceiling, so the score penalizes
      SLO mismatch (log-distance between the tenant's latency bound and
      the server's current strictest);
    + ties break toward the server with the most token headroom, which
      balances load.

    Best-effort tenants have no latency bound and simply go to the server
    with the most headroom. *)

open Reflex_qos

type t

val create : unit -> t

val add_server : t -> name:string -> Server.t -> unit

(** All servers, in {e insertion order} — deterministic by construction
    (the pool is a list, never a Hashtbl), so rack reports built from
    this ordering are byte-stable across runs and domains. *)
val servers : t -> (string * Server.t) list

type placement = { server_name : string; server : Server.t }

(** One load/capacity sample of a server, taken by {!probes}. *)
type probe = {
  probe_name : string;
  probe_server : Server.t;
  probe_headroom : float;
      (** unreserved LC token rate (tokens/s) at the current strictest SLO *)
  probe_queue_depth : int;
      (** requests inside the server: rx rings + software queues + NVMe
          in-flight (see {!Server.queue_depth}) *)
}

(** Sample every server, in the same insertion order as {!servers}.
    The rack layer calls this periodically, so balancing policies act on
    probe-aged state; only the idealized oracle reads fresh counters. *)
val probes : t -> probe list

(** [place_excluding_set t ~slo ~excluding] picks the server for a new
    tenant among those whose names are not in [excluding], or [None] when
    none of them can admit it.  Replica selection (replicas must land on
    distinct servers) and tenant migration (the target must be outside
    the current replica set) both exclude several servers at once. *)
val place_excluding_set : t -> slo:Slo.t -> excluding:string list -> placement option
