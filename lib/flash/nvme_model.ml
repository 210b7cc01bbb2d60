open Reflex_engine
open Reflex_telemetry

(* Each die is an independent single-server queue; requests are routed to
   the less-loaded of two randomly chosen dies ("power of two choices",
   approximating the striping + limited-queue parallelism of a real SSD).
   Reads are high priority but service is non-preemptive, so a read routed
   to a die mid-program or mid-erase waits — the physical root of the
   read/write interference in the paper's Figure 1.

   Every piece of work in flight is an int slot of the op arena below,
   and every step is a handler registered once at creation: the die
   completion, the read pipeline and the write ack are posted [Sim]
   events carrying a slot (or a die), and a write waiting for a
   DRAM-buffer slot sits on an intrusive FIFO threaded through
   [op_next].  A die is a two-priority FCFS queue of slots, also
   threaded through [op_next], so queueing behind a busy die allocates
   nothing.  Times inside the model are int nanoseconds; a [Time.t] is
   boxed only to post an event or to hand a latency to the caller.
   Each event's time and insertion order, and the order of the PRNG
   draws, are part of every pinned render and perfbench [sim_digest]. *)

(* What an op slot is. *)
let tag_read = 0 (* a read: die job, then the pipeline event *)
let tag_write = 1 (* a write: buffer-slot wait, then the ack event *)
let tag_group = 2 (* a write's backend: [op_arg] program chunks remain *)
let tag_chunk = 3 (* one program chunk on a die; [op_arg] is its group *)
let tag_erase = 4 (* an erase burst on a die *)

let no_cb ~latency:_ = ()

(* An intrusive FIFO of op slots, linked through the arena's [op_next]. *)
type fifo = { mutable head : int; mutable tail : int }

let new_fifo () = { head = -1; tail = -1 }

type t = {
  sim : Sim.t;
  p : Device_profile.t;
  prng : Prng.t;
  created_at : Time.t;
  t_read_ns : int;
  n_dies : int;
  (* per die: the op in service (-1 when idle) and two FIFOs of op slots *)
  die_cur : int array;
  die_hi : fifo array;
  die_lo : fifo array;
  die_busy_ns : int array;
  die_work : int array; (* outstanding service ns per die *)
  die_programs : int array; (* programs since last erase, per die *)
  (* the op arena: parallel arrays indexed by slot, grown on demand *)
  mutable op_tag : int array;
  mutable op_service : int array; (* die occupancy, ns *)
  mutable op_arg : int array; (* submit time ns, group slot or chunk count *)
  mutable op_next : int array; (* FIFO link, -1 at the tail *)
  mutable op_cb : (latency:Time.t -> unit) array;
  mutable op_free : int array;
  mutable op_free_len : int;
  (* posted-event handlers *)
  mutable die_done_h : int;
  mutable read_done_h : int;
  mutable write_ack_h : int;
  mutable wrote : bool;
  mutable last_write_ns : int;
  mutable wbuf_used : int;
  waiting : fifo; (* writes waiting for a DRAM-buffer slot *)
  mutable wait_len : int;
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

(* [Time.scale] on int nanoseconds: the same rounding, no box. *)
let scale_ns ns x = int_of_float (Float.round (float_of_int ns *. x))

(* ---- the op arena ---- *)

let grow a ncap fill =
  let na = Array.make ncap fill in
  Array.blit a 0 na 0 (Array.length a);
  na

(* Cold path: double the arena and push the fresh slots onto the
   freelist. *)
let grow_ops t =
  let cap = Array.length t.op_tag in
  let ncap = if cap = 0 then 64 else 2 * cap in
  t.op_tag <- grow t.op_tag ncap 0;
  t.op_service <- grow t.op_service ncap 0;
  t.op_arg <- grow t.op_arg ncap 0;
  t.op_next <- grow t.op_next ncap (-1);
  t.op_cb <- grow t.op_cb ncap no_cb;
  t.op_free <- grow t.op_free ncap 0;
  for slot = ncap - 1 downto cap do
    t.op_free.(t.op_free_len) <- slot;
    t.op_free_len <- t.op_free_len + 1
  done

let alloc_op t tag =
  if t.op_free_len = 0 then grow_ops t;
  t.op_free_len <- t.op_free_len - 1;
  let op = t.op_free.(t.op_free_len) in
  t.op_tag.(op) <- tag;
  op

let free_op t op =
  t.op_cb.(op) <- no_cb;
  t.op_free.(t.op_free_len) <- op;
  t.op_free_len <- t.op_free_len + 1

(* ---- dies ---- *)

(* Start [op] on idle [die]: its completion is a posted event. *)
let start_die t die op =
  t.die_cur.(die) <- op;
  Sim.post_after t.sim (Time.ns t.op_service.(op)) t.die_done_h die

let push t q op =
  t.op_next.(op) <- -1;
  if q.head < 0 then q.head <- op else t.op_next.(q.tail) <- op;
  q.tail <- op

(* The oldest op, or -1 when [q] is empty. *)
let pop t q =
  let op = q.head in
  if op >= 0 then q.head <- t.op_next.(op);
  op

(* High-priority jobs first, each level FCFS. *)
let dispatch_die t die =
  let op = pop t t.die_hi.(die) in
  if op >= 0 then start_die t die op
  else begin
    let op = pop t t.die_lo.(die) in
    if op >= 0 then start_die t die op
  end

(* Queue [op] for [service] ns on [die]: it starts at once on an idle
   die, else waits at its priority. *)
let run_on_die t ~die ~high op service =
  (* Die slowdown (wear-out, thermal throttling, firmware pauses): a
     per-die service multiplier, identity unless a fault armed it. *)
  let service =
    if t.faulty && t.die_slowdown.(die) <> 1.0 then scale_ns service t.die_slowdown.(die)
    else service
  in
  if service < 0 then invalid_arg "Nvme_model: negative service";
  t.op_service.(op) <- service;
  t.die_work.(die) <- t.die_work.(die) + service;
  if t.die_cur.(die) < 0 then start_die t die op
  else push t (if high then t.die_hi.(die) else t.die_lo.(die)) op

let profile t = t.p

let read_only_mode t =
  (not t.wrote)
  || Int64.to_int (Sim.now t.sim) - t.last_write_ns > Int64.to_int t.p.ro_window

(* Wear lengthens every die operation: programs and erases take longer on
   aged cells, and reads pay more error-correction retries. *)
let noisy t ~sigma base =
  scale_ns base (t.p.wear *. Prng.lognormal t.prng ~median:1.0 ~sigma)

(* Remap a die index to the next healthy die (wrapping).  Only reached
   when at least one die has failed; if somehow every die is down, the
   original index is kept (the device keeps limping rather than
   deadlocking — the controller would remap to spare blocks). *)
let healthy_die t i =
  if t.failed_dies = 0 then i
  else begin
    let n = t.n_dies in
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
  let n = t.n_dies in
  let i = Prng.int t.prng n in
  let j = Prng.int t.prng n in
  let i = if t.faulty then healthy_die t i else i in
  let j = if t.faulty then healthy_die t j else j in
  if t.die_work.(i) <= t.die_work.(j) then i else j

let submit_read t ~bytes cb =
  let sectors = Io_op.sectors_of_bytes bytes in
  let base = scale_ns t.t_read_ns (float_of_int sectors) in
  let occupancy = if read_only_mode t then scale_ns base (1.0 /. t.p.ro_speedup) else base in
  let service = noisy t ~sigma:t.p.service_sigma occupancy in
  let op = alloc_op t tag_read in
  t.op_arg.(op) <- Int64.to_int (Sim.now t.sim);
  t.op_cb.(op) <- cb;
  let die = pick_die t in
  run_on_die t ~die ~high:true op service

(* Posted: a read leaves the pipeline. *)
let read_done t op =
  let cb = t.op_cb.(op) and submitted = t.op_arg.(op) in
  free_op t op;
  t.reads_done <- t.reads_done + 1;
  let latency = Time.ns (Int64.to_int (Sim.now t.sim) - submitted) in
  if t.tel_on then Reflex_stats.Hdr_histogram.record t.h_read latency;
  cb ~latency

(* Backend work for one write: program jobs plus an erase burst every
   [erase_every] programs on a die.  All low priority: reads dispatch
   first, but cannot preempt a job once started.  The program work is
   split into ~2-token chunks spread over the dies (real controllers
   interleave page programs across planes); the blocking unit seen by a
   read is therefore a chunk or an erase, not one monolithic program. *)
let chunk_tokens = 2.0

let erase_ns t =
  let p = t.p in
  scale_ns t.t_read_ns (p.erase_frac *. float_of_int p.erase_every *. chunk_tokens)

let submit_backend t ~sectors =
  let p = t.p in
  let total_tokens = p.write_cost *. float_of_int sectors *. (1.0 -. p.erase_frac) in
  let n_chunks = max 1 (int_of_float (Float.round (total_tokens /. chunk_tokens))) in
  let chunk = scale_ns t.t_read_ns (total_tokens /. float_of_int n_chunks) in
  let group = alloc_op t tag_group in
  t.op_arg.(group) <- n_chunks;
  for _ = 1 to n_chunks do
    let die = pick_die t in
    let service = noisy t ~sigma:p.service_sigma chunk in
    let op = alloc_op t tag_chunk in
    t.op_arg.(op) <- group;
    run_on_die t ~die ~high:false op service
  done

(* A write holding a DRAM-buffer slot: its backend work is queued and its
   acknowledgement posted. *)
let run_with_slot t op ~sectors =
  t.wbuf_used <- t.wbuf_used + 1;
  submit_backend t ~sectors;
  let ack = noisy t ~sigma:t.p.write_ack_sigma (Int64.to_int t.p.t_write_ack) in
  Sim.post_after t.sim (Time.ns ack) t.write_ack_h op

let submit_write t ~bytes cb =
  let sectors = Io_op.sectors_of_bytes bytes in
  let now = Int64.to_int (Sim.now t.sim) in
  t.wrote <- true;
  t.last_write_ns <- now;
  let op = alloc_op t tag_write in
  t.op_arg.(op) <- now;
  t.op_cb.(op) <- cb;
  (* A waiting write keeps its size in [op_service] until it runs. *)
  if t.wbuf_used < t.p.write_buffer_slots then run_with_slot t op ~sectors
  else begin
    t.op_service.(op) <- sectors;
    push t t.waiting op;
    t.wait_len <- t.wait_len + 1
  end

(* Posted: a write's DRAM-buffer acknowledgement. *)
let write_ack t op =
  let cb = t.op_cb.(op) and submitted = t.op_arg.(op) in
  free_op t op;
  t.writes_done <- t.writes_done + 1;
  let latency = Time.ns (Int64.to_int (Sim.now t.sim) - submitted) in
  if t.tel_on then Reflex_stats.Hdr_histogram.record t.h_write latency;
  cb ~latency

(* A program chunk finished on [die]: the last chunk of a write frees its
   buffer slot (and starts the oldest waiting write), and every
   [erase_every] programs the die owes an erase burst. *)
let chunk_done t die group =
  let left = t.op_arg.(group) - 1 in
  t.op_arg.(group) <- left;
  if left = 0 then begin
    free_op t group;
    (* The DRAM buffer slot frees once the data is programmed. *)
    t.wbuf_used <- t.wbuf_used - 1;
    let w = pop t t.waiting in
    if w >= 0 then begin
      t.wait_len <- t.wait_len - 1;
      run_with_slot t w ~sectors:t.op_service.(w)
    end
  end;
  t.die_programs.(die) <- t.die_programs.(die) + 1;
  if t.die_programs.(die) >= t.p.erase_every then begin
    t.die_programs.(die) <- 0;
    let erase = erase_ns t in
    let service = noisy t ~sigma:t.p.service_sigma erase in
    run_on_die t ~die ~high:false (alloc_op t tag_erase) service
  end

(* Posted: the job in service on [die] completes.  As a single-server
   queue: the die goes idle, its next job starts, and only then does the
   finished job release its outstanding work and continue. *)
let die_done t die =
  let op = t.die_cur.(die) in
  let service = t.op_service.(op) in
  t.die_cur.(die) <- -1;
  t.die_busy_ns.(die) <- t.die_busy_ns.(die) + service;
  dispatch_die t die;
  t.die_work.(die) <- t.die_work.(die) - service;
  let tag = t.op_tag.(op) in
  if tag = tag_read then Sim.post_after t.sim t.p.read_pipeline t.read_done_h op
  else begin
    let group = t.op_arg.(op) in
    free_op t op;
    if tag = tag_chunk then chunk_done t die group
  end

let die_utilization t die =
  let elapsed = Time.diff (Sim.now t.sim) t.created_at in
  if Time.(elapsed <= Time.zero) then 0.0
  else float_of_int t.die_busy_ns.(die) /. Time.to_float_ns elapsed

let utilization t =
  let sum = ref 0.0 in
  for die = 0 to t.n_dies - 1 do
    sum := !sum +. die_utilization t die
  done;
  !sum /. float_of_int t.n_dies

let create ?(telemetry = Telemetry.disabled) sim ~profile ~prng =
  let n = profile.Device_profile.n_dies in
  let t =
    {
      sim;
      p = profile;
      prng;
      created_at = Sim.now sim;
      t_read_ns = Int64.to_int profile.t_read;
      n_dies = n;
      die_cur = Array.make n (-1);
      die_busy_ns = Array.make n 0;
      die_work = Array.make n 0;
      die_hi = Array.init n (fun _ -> new_fifo ());
      die_lo = Array.init n (fun _ -> new_fifo ());
      die_programs = Array.make n 0;
      op_tag = [||];
      op_service = [||];
      op_arg = [||];
      op_next = [||];
      op_cb = [||];
      op_free = [||];
      op_free_len = 0;
      die_done_h = -1;
      read_done_h = -1;
      write_ack_h = -1;
      wrote = false;
      last_write_ns = 0;
      wbuf_used = 0;
      waiting = new_fifo ();
      wait_len = 0;
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
  t.die_done_h <- Sim.handler sim (die_done t);
  t.read_done_h <- Sim.handler sim (read_done t);
  t.write_ack_h <- Sim.handler sim (write_ack t);
  if t.tel_on then begin
    Telemetry.register_gauge telemetry "flash/wbuf_used" (fun () -> float_of_int t.wbuf_used);
    Telemetry.register_gauge telemetry "flash/wbuf_waiters" (fun () ->
        float_of_int t.wait_len);
    Telemetry.register_gauge telemetry "flash/reads_done" (fun () -> float_of_int t.reads_done);
    Telemetry.register_gauge telemetry "flash/writes_done" (fun () ->
        float_of_int t.writes_done);
    Telemetry.register_gauge telemetry "flash/util" (fun () -> utilization t)
  end;
  t

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
  if die < 0 || die >= t.n_dies then
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
  let erase = erase_ns t in
  let n = t.n_dies in
  let gap = Time.scale duration (1.0 /. float_of_int bursts_per_die) in
  for b = 0 to bursts_per_die - 1 do
    let fire = Time.add (Sim.now t.sim) (Time.scale gap (float_of_int b)) in
    ignore
      (Sim.at t.sim fire (fun () ->
           for die = 0 to n - 1 do
             if t.die_ok.(die) then begin
               t.gc_storm_bursts <- t.gc_storm_bursts + 1;
               run_on_die t ~die ~high:false (alloc_op t tag_erase) erase
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
  let n = t.n_dies in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    if t.die_ok.(i) then sum := !sum +. (1.0 /. t.die_slowdown.(i))
  done;
  !sum /. float_of_int n
