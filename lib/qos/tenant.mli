(** Per-tenant scheduling state: the software request queue, the token
    balance, and the recent-grant history used for POS_LIMIT (paper
    §3.2.2).

    The record is exposed so that the scheduler round reads and writes the
    float state in place.  The floats live in {!acct}, an all-float record
    that OCaml stores flat: writing one of its fields allocates nothing,
    where a float field of a mixed record, or a float passed to or
    returned from a function of another module, would be boxed.  Build
    tenants with {!create}. *)

type acct = {
  mutable tokens : float;
      (** Token balance; may be negative down to the scheduler's
          NEG_LIMIT. *)
  mutable demand : float;  (** Sum of the costs of all queued requests. *)
  mutable token_rate : float;
      (** Tokens/sec granted by the control plane: an LC tenant's weighted
          SLO rate, or a BE tenant's fair share of unallocated
          throughput.  Set it with {!set_token_rate}. *)
  mutable granted_total : float;  (** Tokens ever granted (observability). *)
  mutable submitted_cost : float;  (** Tokens ever spent on submissions. *)
}

type 'a t = {
  id : int;
  slo : Slo.t;
  queue : (float * 'a) Queue.t;  (** FIFO of (cost, request). *)
  acct : acct;
  grants : float array;
      (** POS_LIMIT ring: the LC grants of the last three rounds, written
          at [grant_pos]; their sum is the balance an LC tenant may hold
          before donating (paper: accommodates short bursts without going
          into deficit). *)
  mutable grant_pos : int;
  mutable backlog : Reflex_engine.Cell.t;
      (** The owning scheduler's backlog cell, moved by every
          {!enqueue}/{!dequeue} so the scheduler's O(1) backlog stays
          exact even when a queue is drained directly.
          Outside a scheduler, a cell of the tenant's own. *)
}

(** [create ~id ~slo ~token_rate]: an empty queue, a zero balance and a
    detached backlog cell. *)
val create : id:int -> slo:Slo.t -> token_rate:float -> 'a t

val id : 'a t -> int
val slo : 'a t -> Slo.t
val is_latency_critical : 'a t -> bool

(** Raises [Invalid_argument] on a negative rate. *)
val set_token_rate : 'a t -> float -> unit

(** {1 Request queue} *)

(** [enqueue t ~cost req] appends a request whose submission will cost
    [cost] tokens. *)
val enqueue : 'a t -> cost:float -> 'a -> unit

val queue_length : 'a t -> int

(** Remove and return the head request with its cost. *)
val dequeue : 'a t -> (float * 'a) option
