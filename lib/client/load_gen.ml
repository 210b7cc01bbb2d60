open Reflex_engine
open Reflex_stats
open Reflex_proto

type t = {
  sim : Sim.t;
  client : Client_lib.t;
  mix : [ `Random | `Deterministic ];
  mutable mix_credit : float; (* Bresenham accumulator for `Deterministic *)
  reads : Hdr_histogram.t;
  writes : Hdr_histogram.t;
  mutable issued : int;
  mutable completed : int;
  mutable errors : int;
  mutable timeout_errors : int; (* Timed_out completions, a subset of errors *)
  (* Fault injection (lib/faults): open-loop arrival-rate multiplier for
     the misbehaving-tenant fault.  At the default 1.0 the gap
     computation is skipped entirely, so fault-free runs stay
     byte-identical. *)
  mutable burst_factor : float;
  mutable measure_from : Time.t;
  mutable measure_until : Time.t option;
  mutable measured_completions : int;
}

let make ?(mix = `Random) sim client =
  {
    sim;
    client;
    mix;
    mix_credit = 0.0;
    reads = Hdr_histogram.create ();
    writes = Hdr_histogram.create ();
    issued = 0;
    completed = 0;
    errors = 0;
    timeout_errors = 0;
    burst_factor = 1.0;
    measure_from = Sim.now sim;
    measure_until = None;
    measured_completions = 0;
  }

let record t ~kind ~issued_at status ~latency =
  t.completed <- t.completed + 1;
  if status <> Message.Ok then begin
    t.errors <- t.errors + 1;
    if status = Message.Timed_out then t.timeout_errors <- t.timeout_errors + 1
  end
  else if Time.(issued_at >= t.measure_from) then begin
    let in_window =
      match t.measure_until with None -> true | Some u -> Time.(Sim.now t.sim <= u)
    in
    if in_window then t.measured_completions <- t.measured_completions + 1;
    match kind with
    | `Read -> Hdr_histogram.record t.reads latency
    | `Write -> Hdr_histogram.record t.writes latency
  end

(* With a deterministic mix, reads and writes interleave on a fixed
   schedule (e.g. exactly one write every five requests at 80% reads),
   like a paced load generator; with a random mix each request is an
   independent Bernoulli draw. *)
let next_kind t ~prng ~read_ratio =
  match t.mix with
  | `Random -> if Prng.bool prng read_ratio then `Read else `Write
  | `Deterministic ->
    t.mix_credit <- t.mix_credit +. read_ratio;
    if t.mix_credit >= 1.0 then begin
      t.mix_credit <- t.mix_credit -. 1.0;
      `Read
    end
    else `Write

let issue t ~prng ~read_ratio ~bytes ~lba_hi k =
  let kind = next_kind t ~prng ~read_ratio in
  let lba = Int64.of_int (Prng.int prng (Int64.to_int lba_hi)) in
  let issued_at = Sim.now t.sim in
  t.issued <- t.issued + 1;
  let complete status ~latency =
    record t ~kind ~issued_at status ~latency;
    k ()
  in
  match kind with
  | `Read -> Client_lib.read t.client ~lba ~len:bytes complete
  | `Write -> Client_lib.write t.client ~lba ~len:bytes complete

let open_loop sim ~client ?(pacing = `Poisson) ?mix ~rate ~read_ratio ~bytes ~until
    ?(lba_hi = 1_000_000L) ?(seed = 0x10AD_0001L) () =
  if rate <= 0.0 then invalid_arg "Load_gen.open_loop: rate";
  let t = make ?mix sim client in
  let prng = Prng.create seed in
  let gap_mean = 1e9 /. rate in
  let next_gap () =
    let gap =
      match pacing with
      | `Poisson ->
        Time.max (Time.ns 1) (Time.of_float_ns (Prng.exponential prng ~mean:gap_mean))
      | `Cbr ->
        (* Evenly paced with a little dither so flows do not phase-lock. *)
        Time.max (Time.ns 1) (Time.of_float_ns (gap_mean *. Prng.float_range prng 0.95 1.05))
    in
    (* Misbehaving-tenant fault: a burst factor > 1 shrinks gaps, driving
       the generator above its declared rate.  Skipped at 1.0. *)
    if t.burst_factor = 1.0 then gap
    else Time.max (Time.ns 1) (Time.scale gap (1.0 /. t.burst_factor))
  in
  let rec arrival () =
    if Time.(Sim.now sim <= until) then begin
      issue t ~prng ~read_ratio ~bytes ~lba_hi (fun () -> ());
      ignore (Sim.after sim (next_gap ()) arrival)
    end
  in
  ignore (Sim.at sim (Sim.now sim) arrival);
  t

let closed_loop sim ~client ~depth ?(think = Time.zero) ?mix ~read_ratio ~bytes ~until
    ?(lba_hi = 1_000_000L) ?(seed = 0x10AD_0002L) () =
  if depth < 1 then invalid_arg "Load_gen.closed_loop: depth";
  let t = make ?mix sim client in
  let prng = Prng.create seed in
  let rec next () =
    if Time.(Sim.now sim <= until) then
      issue t ~prng ~read_ratio ~bytes ~lba_hi (fun () ->
          if Time.(think > Time.zero) then ignore (Sim.after sim think next) else next ())
  in
  for _ = 1 to depth do
    ignore (Sim.at sim (Sim.now sim) next)
  done;
  t

let mark_measurement_start t =
  t.measure_from <- Sim.now t.sim;
  t.measure_until <- None;
  t.measured_completions <- 0;
  Hdr_histogram.reset t.reads;
  Hdr_histogram.reset t.writes

let freeze_window t = t.measure_until <- Some (Sim.now t.sim)

let set_burst_factor t f =
  if f <= 0.0 then invalid_arg "Load_gen.set_burst_factor: factor";
  t.burst_factor <- f

let reads t = t.reads
let issued t = t.issued
let completed t = t.completed
let errors t = t.errors
let timeout_errors t = t.timeout_errors

let achieved_iops t =
  let window_end = match t.measure_until with None -> Sim.now t.sim | Some u -> u in
  let elapsed = Time.to_float_sec (Time.diff window_end t.measure_from) in
  if elapsed <= 0.0 then 0.0 else float_of_int t.measured_completions /. elapsed

let pct h p = if Hdr_histogram.count h = 0 then Float.nan else Hdr_histogram.percentile_us h p
let mean h = if Hdr_histogram.count h = 0 then Float.nan else Hdr_histogram.mean_us h
let p95_read_us t = pct t.reads 95.0
let mean_read_us t = mean t.reads
let p95_write_us t = pct t.writes 95.0
let mean_write_us t = mean t.writes
