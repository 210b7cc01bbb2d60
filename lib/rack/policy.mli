(** Request-level load-balancing policies for the rack layer.

    Each request carries a candidate set (the tenant's replica servers);
    the policy picks one.  Policies see two views of server load:

    - [sampled]: per-server queue depth as of the last periodic probe
      ({!Rack.sample_probes}) — {e stale} by up to one probe period,
      which is what a real rack balancer acting on gossip or pull-based
      telemetry has to live with (JSQ on stale samples famously herds);
    - [exact]: fresh in-flight counts maintained synchronously by the
      rack on every dispatch/completion — only the idealized central
      {!Oracle} is allowed to read these.

    Every policy is deterministic: stochastic ones draw from the PRNG
    stream handed to {!create} (seeded per world), and all argmin scans
    break ties toward the lowest server index, so a bakeoff table is
    byte-identical across reruns and domains. *)

open Reflex_engine

type kind =
  | Random  (** uniform over the candidate set *)
  | Round_robin  (** rotating cursor over candidate positions *)
  | Jsq  (** join-shortest-queue over probe-aged [sampled] depths *)
  | Po2c  (** power-of-two-choices: two uniform draws, shorter [sampled] wins *)
  | Oracle  (** idealized centralized balancer over fresh [exact] counts *)

(** All kinds, bakeoff order (the order policies print in reports). *)
val all : kind list

val kind_name : kind -> string

(** Stable small int per kind (flight-recorder payloads). *)
val kind_index : kind -> int

type t

(** [create kind ~prng] — [prng] feeds [Random]/[Po2c]; deterministic
    policies never touch it. *)
val create : kind -> prng:Prng.t -> t

val kind : t -> kind

(** [pick t ~candidates ~sampled ~exact] returns the chosen server
    index (an element of [candidates]).  [sampled] and [exact] are
    indexed by absolute server index.  Ties break toward the lowest
    server index.
    @raise Invalid_argument on an empty candidate set. *)
val pick : t -> candidates:int array -> sampled:int array -> exact:int array -> int
