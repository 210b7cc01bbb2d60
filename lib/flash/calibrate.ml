open Reflex_engine
open Reflex_stats

type point = {
  offered_iops : float;
  achieved_iops : float;
  achieved_read_iops : float;
  achieved_write_iops : float;
  read_ratio : float;
  mean_read_us : float;
  p95_read_us : float;
  mean_write_us : float;
  p95_write_us : float;
}

type config = { duration : Time.t; warmup : Time.t; seed : int64 }

let default_config = { duration = Time.ms 400; warmup = Time.ms 100; seed = 0xF1A5_CA11_B8A7E5L }

let measure ?(config = default_config) profile ~read_ratio ~bytes ~rate =
  if read_ratio < 0.0 || read_ratio > 1.0 then invalid_arg "Calibrate.measure: read_ratio";
  if rate <= 0.0 then invalid_arg "Calibrate.measure: rate";
  let sim = Sim.create ~seed:config.seed () in
  let prng = Prng.split (Sim.prng sim) in
  let arrival_prng = Prng.split (Sim.prng sim) in
  let dev = Nvme_model.create sim ~profile ~prng in
  let reads = Hdr_histogram.create () and writes = Hdr_histogram.create () in
  let read_completions = ref 0 and write_completions = ref 0 in
  let mean_gap_ns = 1e9 /. rate in
  let stop_at = Time.add config.warmup config.duration in
  let rec arrival () =
    let now = Sim.now sim in
    if Time.(now <= stop_at) then begin
      let kind = if Prng.bool arrival_prng read_ratio then Io_op.Read else Io_op.Write in
      let measured = Time.(now >= config.warmup) in
      Nvme_model.submit dev ~kind ~bytes (fun ~latency ->
          (* Latencies count for any request submitted in the window;
             completion-rate counters only up to the window's end, so that
             the post-window drain cannot inflate the achieved rate. *)
          if measured then begin
            let in_window = Time.(Sim.now sim <= stop_at) in
            match kind with
            | Read ->
              Hdr_histogram.record reads latency;
              if in_window then incr read_completions
            | Write ->
              Hdr_histogram.record writes latency;
              if in_window then incr write_completions
          end);
      let gap = Time.of_float_ns (Prng.exponential arrival_prng ~mean:mean_gap_ns) in
      ignore (Sim.after sim (Time.max gap (Time.ns 1)) arrival)
    end
  in
  ignore (Sim.at sim Time.zero arrival);
  (* Cut the run off: under overload the backlog would take unbounded
     simulated time to drain; latencies past the horizon saturate. *)
  let horizon = Time.add stop_at (Time.ms 200) in
  ignore (Sim.run ~until:horizon sim);
  let measured_sec = Time.to_float_sec config.duration in
  let pct h p = if Hdr_histogram.count h = 0 then Float.nan else Hdr_histogram.percentile_us h p in
  let mean h = if Hdr_histogram.count h = 0 then Float.nan else Hdr_histogram.mean_us h in
  let achieved_reads = float_of_int !read_completions /. measured_sec in
  let achieved_writes = float_of_int !write_completions /. measured_sec in
  {
    offered_iops = rate;
    achieved_iops = achieved_reads +. achieved_writes;
    achieved_read_iops = achieved_reads;
    achieved_write_iops = achieved_writes;
    read_ratio;
    mean_read_us = mean reads;
    p95_read_us = pct reads 95.0;
    mean_write_us = mean writes;
    p95_write_us = pct writes 95.0;
  }

(* A point "meets" the SLO when p95 read latency is under target AND the
   device actually kept up with the offered load (otherwise the open-loop
   backlog makes the measured latency an artifact of the horizon). *)
let meets point ~p95_target_us =
  let keeps_up offered achieved = offered < 500.0 || achieved >= 0.95 *. offered in
  (not (Float.is_nan point.p95_read_us))
  && point.p95_read_us <= p95_target_us
  && keeps_up (point.offered_iops *. point.read_ratio) point.achieved_read_iops
  && keeps_up (point.offered_iops *. (1.0 -. point.read_ratio)) point.achieved_write_iops

let max_rate_for_slo ?config profile ~read_ratio ~bytes ~p95_target_us =
  let ceiling = Device_profile.read_only_iops profile *. 1.2 in
  let rec search lo hi iters =
    if iters = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      let point = measure ?config profile ~read_ratio ~bytes ~rate:mid in
      if meets point ~p95_target_us then search mid hi (iters - 1) else search lo mid (iters - 1)
  in
  search 1_000.0 ceiling 9

type fitted = { write_cost : float; ro_read_cost : float; token_rate : float; fit_r2 : float }

(* Linearization (DESIGN.md): with K = tokens/s at the SLO and c_w the
   write cost, the SLO-constrained raw rate T(r) satisfies
       1/T(r) = 1/K + ((c_w - 1)/K) * (1 - r)
   so an OLS fit of y = 1/T against x = 1-r yields K = 1/intercept and
   c_w = 1 + slope/intercept. *)
let fit_cost_model ?config ?(read_ratios = [ 0.99; 0.95; 0.9; 0.75; 0.5 ]) profile
    ~p95_target_us =
  let bytes = Io_op.lba_size in
  let points =
    List.map
      (fun r ->
        let t = max_rate_for_slo ?config profile ~read_ratio:r ~bytes ~p95_target_us in
        (1.0 -. r, 1.0 /. t))
      read_ratios
  in
  let f = Linear_fit.fit points in
  let token_rate = 1.0 /. f.intercept in
  let write_cost = 1.0 +. (f.slope /. f.intercept) in
  let t_ro = max_rate_for_slo ?config profile ~read_ratio:1.0 ~bytes ~p95_target_us in
  { write_cost; ro_read_cost = token_rate /. t_ro; token_rate; fit_r2 = f.r2 }

let max_token_rate ?config profile ~p95_target_us =
  let r = 0.9 in
  let t = max_rate_for_slo ?config profile ~read_ratio:r ~bytes:Io_op.lba_size ~p95_target_us in
  let c_w = profile.Device_profile.write_cost in
  t *. ((r *. 1.0) +. ((1.0 -. r) *. c_w))
