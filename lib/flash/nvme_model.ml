open Reflex_engine
open Reflex_telemetry

(* Each die is an independent single-server queue; requests are routed to
   the less-loaded of two randomly chosen dies ("power of two choices",
   approximating the striping + limited-queue parallelism of a real SSD).
   Reads are high priority but service is non-preemptive, so a read routed
   to a die mid-program or mid-erase waits — the physical root of the
   read/write interference in the paper's Figure 1. *)

type t = {
  sim : Sim.t;
  p : Device_profile.t;
  prng : Prng.t;
  dies : Resource.t array;
  die_work : Time.t array; (* outstanding service time per die *)
  die_programs : int array; (* programs since last erase, per die *)
  mutable last_write : Time.t option;
  mutable wbuf_used : int;
  wbuf_waiters : (unit -> unit) Queue.t;
  mutable reads_done : int;
  mutable writes_done : int;
  (* ---- fault-injection state (lib/faults) ----
     [faulty] is the single guard the routing/service hot path reads:
     false (the default) means all arrays below are identity and the
     pre-fault code path runs unchanged — including identical PRNG draw
     order, which is what keeps fault-free chaos builds byte-identical
     to plain builds. *)
  mutable faulty : bool;
  die_ok : bool array; (* false: die failed, excluded from routing *)
  die_slowdown : float array; (* >=1.0 service multiplier per die *)
  mutable failed_dies : int;
  mutable gc_storm_bursts : int; (* injected erase bursts, observability *)
  (* Observability: [tel_on] is a copy of the telemetry instance's
     immutable enabled bit; the completion-path histogram records are
     skipped on that single test when telemetry is off. *)
  tel_on : bool;
  h_read : Reflex_stats.Hdr_histogram.t; (* flash/read_ns *)
  h_write : Reflex_stats.Hdr_histogram.t; (* flash/write_ns *)
  (* Cost profiler (lib/obs), cached off the telemetry instance; scopes
     the submission path under the Flash bucket.  Disabled by default. *)
  prof : Reflex_obs.Profiler.t;
}

let create ?(telemetry = Telemetry.disabled) sim ~profile ~prng =
  let n = profile.Device_profile.n_dies in
  let t =
    {
      sim;
      p = profile;
      prng;
      dies = Array.init n (fun _ -> Resource.create sim);
      die_work = Array.make n Time.zero;
      die_programs = Array.make n 0;
      last_write = None;
      wbuf_used = 0;
      wbuf_waiters = Queue.create ();
      reads_done = 0;
      writes_done = 0;
      faulty = false;
      die_ok = Array.make n true;
      die_slowdown = Array.make n 1.0;
      failed_dies = 0;
      gc_storm_bursts = 0;
      tel_on = Telemetry.enabled telemetry;
      h_read = Telemetry.histogram telemetry "flash/read_ns";
      h_write = Telemetry.histogram telemetry "flash/write_ns";
      prof = Telemetry.profiler telemetry;
    }
  in
  if t.tel_on then begin
    Telemetry.register_gauge telemetry "flash/wbuf_used" (fun () -> float_of_int t.wbuf_used);
    Telemetry.register_gauge telemetry "flash/wbuf_waiters" (fun () ->
        float_of_int (Queue.length t.wbuf_waiters));
    Telemetry.register_gauge telemetry "flash/reads_done" (fun () -> float_of_int t.reads_done);
    Telemetry.register_gauge telemetry "flash/writes_done" (fun () ->
        float_of_int t.writes_done);
    Telemetry.register_gauge telemetry "flash/util" (fun () ->
        Array.fold_left (fun acc d -> acc +. Resource.utilization d) 0.0 t.dies
        /. float_of_int (Array.length t.dies))
  end;
  t

let profile t = t.p

let read_only_mode t =
  match t.last_write with
  | None -> true
  | Some w -> Time.(Time.diff (Sim.now t.sim) w > t.p.ro_window)

(* Wear lengthens every die operation: programs and erases take longer on
   aged cells, and reads pay more error-correction retries. *)
let noisy t ~sigma base =
  Time.scale base (t.p.wear *. Prng.lognormal t.prng ~median:1.0 ~sigma)

(* Remap a die index to the next healthy die (wrapping).  Only reached
   when at least one die has failed; if somehow every die is down, the
   original index is kept (the device keeps limping rather than
   deadlocking — the controller would remap to spare blocks). *)
let healthy_die t i =
  if t.failed_dies = 0 then i
  else begin
    let n = Array.length t.dies in
    let k = ref i and steps = ref 0 in
    while (not t.die_ok.(!k)) && !steps < n do
      k := (!k + 1) mod n;
      incr steps
    done;
    !k
  end

(* Least-outstanding-work of two random choices.  The PRNG draws happen
   unconditionally (same order as the fault-free path); the remap to
   healthy dies only runs once a die has actually failed. *)
let pick_die t =
  let n = Array.length t.dies in
  let i = Prng.int t.prng n in
  let j = Prng.int t.prng n in
  (* no tuple: this runs once per read dispatch *)
  let i = if t.faulty then healthy_die t i else i in
  let j = if t.faulty then healthy_die t j else j in
  if Time.(t.die_work.(i) <= t.die_work.(j)) then i else j

let run_on_die t ~die ~priority ~service k =
  (* Die slowdown (wear-out, thermal throttling, firmware pauses): a
     per-die service multiplier, identity unless a fault armed it. *)
  let service =
    if t.faulty && t.die_slowdown.(die) <> 1.0 then Time.scale service t.die_slowdown.(die)
    else service
  in
  t.die_work.(die) <- Time.add t.die_work.(die) service;
  Resource.submit t.dies.(die) ~priority ~service (fun () ->
      t.die_work.(die) <- Time.sub t.die_work.(die) service;
      k ())

let submit_read t ~bytes cb =
  let sectors = Io_op.sectors_of_bytes bytes in
  let base = Time.scale t.p.t_read (float_of_int sectors) in
  let occupancy = if read_only_mode t then Time.scale base (1.0 /. t.p.ro_speedup) else base in
  let service = noisy t ~sigma:t.p.service_sigma occupancy in
  let submit_time = Sim.now t.sim in
  let die = pick_die t in
  run_on_die t ~die ~priority:Resource.High ~service (fun () ->
      ignore
        (Sim.after t.sim t.p.read_pipeline (fun () ->
             t.reads_done <- t.reads_done + 1;
             let latency = Time.diff (Sim.now t.sim) submit_time in
             if t.tel_on then Reflex_stats.Hdr_histogram.record t.h_read latency;
             cb ~latency)))

(* Backend work for one write: program jobs plus an erase burst every
   [erase_every] programs on a die.  All low priority: reads dispatch
   first, but cannot preempt a job once started.  The program work is
   split into ~2-token chunks spread over the dies (real controllers
   interleave page programs across planes); the blocking unit seen by a
   read is therefore a chunk or an erase, not one monolithic program. *)
let chunk_tokens = 2.0

let submit_backend t ~sectors =
  let p = t.p in
  let total_tokens = p.write_cost *. float_of_int sectors *. (1.0 -. p.erase_frac) in
  let n_chunks = max 1 (int_of_float (Float.round (total_tokens /. chunk_tokens))) in
  let chunk = Time.scale p.t_read (total_tokens /. float_of_int n_chunks) in
  let remaining = ref n_chunks in
  for _ = 1 to n_chunks do
    let die = pick_die t in
    run_on_die t ~die ~priority:Resource.Low ~service:(noisy t ~sigma:p.service_sigma chunk)
      (fun () ->
        decr remaining;
        if !remaining = 0 then begin
          (* The DRAM buffer slot frees once the data is programmed. *)
          t.wbuf_used <- t.wbuf_used - 1;
          match Queue.take_opt t.wbuf_waiters with Some k -> k () | None -> ()
        end;
        t.die_programs.(die) <- t.die_programs.(die) + 1;
        if t.die_programs.(die) >= p.erase_every then begin
          t.die_programs.(die) <- 0;
          let erase =
            Time.scale p.t_read (p.erase_frac *. float_of_int p.erase_every *. chunk_tokens)
          in
          run_on_die t ~die ~priority:Resource.Low
            ~service:(noisy t ~sigma:p.service_sigma erase) (fun () -> ())
        end)
  done

let submit_write t ~bytes cb =
  let sectors = Io_op.sectors_of_bytes bytes in
  t.last_write <- Some (Sim.now t.sim);
  let submit_time = Sim.now t.sim in
  let run_with_slot () =
    t.wbuf_used <- t.wbuf_used + 1;
    submit_backend t ~sectors;
    let ack = noisy t ~sigma:t.p.write_ack_sigma t.p.t_write_ack in
    ignore
      (Sim.after t.sim ack (fun () ->
           t.writes_done <- t.writes_done + 1;
           let latency = Time.diff (Sim.now t.sim) submit_time in
           if t.tel_on then Reflex_stats.Hdr_histogram.record t.h_write latency;
           cb ~latency))
  in
  if t.wbuf_used < t.p.write_buffer_slots then run_with_slot ()
  else Queue.add run_with_slot t.wbuf_waiters

let submit t ~kind ~bytes cb =
  if bytes <= 0 then invalid_arg "Nvme_model.submit: non-positive size";
  Reflex_obs.Profiler.enter t.prof Reflex_obs.Profiler.Subsystem.Flash;
  (match (kind : Io_op.kind) with
  | Read -> submit_read t ~bytes cb
  | Write -> submit_write t ~bytes cb);
  Reflex_obs.Profiler.leave t.prof Reflex_obs.Profiler.Subsystem.Flash

let reads_completed t = t.reads_done
let writes_completed t = t.writes_done
let write_buffer_used t = t.wbuf_used

(* ---- Fault-injection API (driven by Reflex_faults.Injector) ---------- *)

let check_die t die =
  if die < 0 || die >= Array.length t.dies then
    invalid_arg (Printf.sprintf "Nvme_model: die %d out of range" die)

let fail_die t ~die =
  check_die t die;
  if t.die_ok.(die) then begin
    t.die_ok.(die) <- false;
    t.failed_dies <- t.failed_dies + 1;
    t.faulty <- true
  end

let restore_die t ~die =
  check_die t die;
  if not t.die_ok.(die) then begin
    t.die_ok.(die) <- true;
    t.failed_dies <- t.failed_dies - 1
  end

let set_die_slowdown t ~die ~factor =
  check_die t die;
  if factor < 1.0 then invalid_arg "Nvme_model.set_die_slowdown: factor < 1.0";
  t.die_slowdown.(die) <- factor;
  if factor <> 1.0 then t.faulty <- true

(* A GC storm queues [bursts_per_die] extra low-priority erase jobs on
   every die, spread evenly over [duration].  The erase service time is
   the exact (noise-free) per-cycle erase cost from the profile, so the
   storm itself draws nothing from the device PRNG — the fault-free
   request stream sees the same random sequence it would have seen, just
   behind more queued erase work (the intended interference). *)
let gc_storm t ~duration ~bursts_per_die =
  if bursts_per_die <= 0 then invalid_arg "Nvme_model.gc_storm: bursts_per_die <= 0";
  let p = t.p in
  let erase = Time.scale p.t_read (p.erase_frac *. float_of_int p.erase_every *. chunk_tokens) in
  let n = Array.length t.dies in
  let gap = Time.scale duration (1.0 /. float_of_int bursts_per_die) in
  for b = 0 to bursts_per_die - 1 do
    let fire = Time.add (Sim.now t.sim) (Time.scale gap (float_of_int b)) in
    ignore
      (Sim.at t.sim fire (fun () ->
           for die = 0 to n - 1 do
             if t.die_ok.(die) then begin
               t.gc_storm_bursts <- t.gc_storm_bursts + 1;
               run_on_die t ~die ~priority:Resource.Low ~service:erase
                 (fun () -> ())
             end
           done))
  done

let failed_dies t = t.failed_dies
let gc_storm_bursts t = t.gc_storm_bursts

(* Usable fraction of nominal service capacity under the current die
   health: a failed die contributes nothing, a slowed die contributes
   1/slowdown of its share.  1.0 when healthy — the control plane's
   degradation re-pricing multiplies its calibrated token rate by this. *)
let effective_capacity t =
  let n = Array.length t.dies in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    if t.die_ok.(i) then sum := !sum +. (1.0 /. t.die_slowdown.(i))
  done;
  !sum /. float_of_int n

let utilization t =
  let n = Array.length t.dies in
  let sum = Array.fold_left (fun acc d -> acc +. Resource.utilization d) 0.0 t.dies in
  sum /. float_of_int n
