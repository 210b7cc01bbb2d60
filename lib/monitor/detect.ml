(* Statistical detectors feeding the alert rules.

   Ewma: an exponentially-weighted mean/variance tracker producing a
   z-score for each new observation BEFORE folding it in (so a spike is
   scored against the pre-spike baseline, not against itself).  A sigma
   floor keeps early, near-constant series from producing huge z-scores
   out of numerical noise, and a warmup count suppresses scores until
   the baseline has seen enough windows to mean anything.

   Knee: the load-knee predicate.  A flash device's latency-vs-IOPS
   curve is a hockey stick (paper Fig. 2): past the knee, queueing
   delay explodes.  The device profile advertises the knee as a
   weighted-token rate (Device_profile.knee_token_rate); a tenant whose
   windowed token rate sits beyond it while its windowed p95 exceeds
   the knee latency is operating on the wrong side of the stick. *)

module Ewma = struct
  type t = {
    sigma_floor : float;
    mutable n : int;
    mutable mean : float;
    mutable var : float;
  }

  (* Every detector smooths at 0.3 and stays quiet for 5 windows. *)
  let alpha = 0.3
  let warmup = 5

  let create ?(sigma_floor = 1.0) () =
    if sigma_floor < 0.0 then invalid_arg "Ewma.create: negative sigma_floor";
    { sigma_floor; n = 0; mean = 0.0; var = 0.0 }

  let n t = t.n
  let mean t = t.mean
  let sigma t = Float.max t.sigma_floor (sqrt t.var)
  let warmed_up t = t.n >= warmup

  (* Score [x] against the current baseline, then fold it in.  Returns
     0 during warmup. *)
  let observe t x =
    let z = if warmed_up t then (x -. t.mean) /. sigma t else 0.0 in
    if t.n = 0 then begin
      t.mean <- x;
      t.var <- 0.0
    end
    else begin
      let d = x -. t.mean in
      (* Standard EWMA mean/variance recurrences. *)
      t.mean <- t.mean +. (alpha *. d);
      t.var <- ((1.0 -. alpha) *. t.var) +. (alpha *. (1.0 -. alpha) *. d *. d)
    end;
    t.n <- t.n + 1;
    z
end

(* True when the (rate, p95) operating point is past the hockey-stick
   knee: sustained weighted-token rate at or beyond the profile's knee
   rate AND windowed p95 beyond the knee latency.  Both conditions are
   required: high rate with good latency is just an efficient device,
   high latency at low rate is some other pathology (the burn rules
   catch it). *)
let knee_crossed ~rate ~knee_rate ~p95_us ~knee_latency_us =
  if knee_rate <= 0.0 then invalid_arg "Detect.knee_crossed: non-positive knee_rate";
  rate >= knee_rate && p95_us > knee_latency_us
