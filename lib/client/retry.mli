(** Client-side request deadlines and retry with exponential backoff.

    The paper's client library assumes a healthy server; under injected
    faults (lib/faults) a request can be delayed past any useful bound,
    so the resilient client arms a per-attempt deadline and re-issues the
    request — with a fresh request id, making delivery at-least-once —
    after an exponentially growing, jittered backoff.  When the retry
    budget is exhausted the operation completes with
    [Message.Timed_out].

    All randomness comes from an explicit PRNG stream owned by the
    client, so a retry schedule is a deterministic function of (policy,
    seed, attempt sequence) — byte-reproducible across runs and across
    serial/parallel experiment sweeps. *)

open Reflex_engine

type policy = {
  timeout : Time.t;  (** per-attempt deadline *)
  max_retries : int;  (** re-issues after the first attempt *)
  backoff_base : Time.t;  (** delay before the first retry *)
  backoff_mult : float;  (** growth factor per retry, >= 1.0 *)
  backoff_max : Time.t;  (** backoff cap *)
  jitter : float;  (** multiplicative jitter half-width in [0,1) *)
}

(** Returns the policy unchanged or raises [Invalid_argument]. *)
val validate : policy -> policy

(** [delay_for policy ~attempt ~prng] — backoff before retry [attempt]
    (1-based): [min(max, base * mult^(attempt-1))] scaled by a uniform
    draw in [1-jitter, 1+jitter).  Exactly one PRNG draw per call,
    regardless of jitter. *)
val delay_for : policy -> attempt:int -> prng:Prng.t -> Time.t

(** Upper bound on first-transmission-to-give-up wall clock: all attempts
    time out, all backoffs land on their jittered maximum.  Retry
    schedules are provably bounded by this. *)
val worst_case_total : policy -> Time.t
