open Reflex_engine

type policy = {
  timeout : Time.t;
  max_retries : int;
  backoff_base : Time.t;
  backoff_mult : float;
  backoff_max : Time.t;
  jitter : float;
}

let validate p =
  if Time.(p.timeout <= Time.zero) then invalid_arg "Retry: timeout must be positive";
  if p.max_retries < 0 then invalid_arg "Retry: max_retries must be >= 0";
  if Time.(p.backoff_base <= Time.zero) then invalid_arg "Retry: backoff_base must be positive";
  if p.backoff_mult < 1.0 then invalid_arg "Retry: backoff_mult must be >= 1.0";
  if Time.(p.backoff_max < p.backoff_base) then
    invalid_arg "Retry: backoff_max must be >= backoff_base";
  if p.jitter < 0.0 || p.jitter >= 1.0 then invalid_arg "Retry: jitter in [0,1)";
  p

(* Exponential backoff, capped, with multiplicative jitter: the delay
   before retry [attempt] (1-based) is
     min(backoff_max, backoff_base * mult^(attempt-1)) * u,
   u uniform in [1-jitter, 1+jitter).  The draw always happens (even at
   jitter 0.0 the PRNG stream advances) so a schedule's draw count — and
   hence its determinism for a fixed seed — never depends on the jitter
   setting. *)
let delay_for policy ~attempt ~prng =
  if attempt < 1 then invalid_arg "Retry.delay_for: attempt is 1-based";
  let base =
    Time.min policy.backoff_max
      (Time.scale policy.backoff_base (policy.backoff_mult ** float_of_int (attempt - 1)))
  in
  let u = Prng.float_range prng (1.0 -. policy.jitter) (1.0 +. policy.jitter) in
  Time.max (Time.ns 1) (Time.scale base u)

(* Worst-case wall clock from first transmission to giving up: every
   attempt times out and every backoff lands on its jittered maximum. *)
let worst_case_total policy =
  let acc = ref (Time.scale policy.timeout (float_of_int (policy.max_retries + 1))) in
  for attempt = 1 to policy.max_retries do
    let base =
      Time.min policy.backoff_max
        (Time.scale policy.backoff_base (policy.backoff_mult ** float_of_int (attempt - 1)))
    in
    acc := Time.add !acc (Time.scale base (1.0 +. policy.jitter))
  done;
  !acc
