(* Request streams: inputs generated from the seed before any world
   exists, and the code that replays them into a [Client_lib]
   connection from the benchmark's own simulation events.  The program
   only ever receives these generated requests. *)

open Reflex_engine
open Reflex_proto
open Reflex_client
module Hdr = Reflex_stats.Hdr_histogram

(* One tenant's inputs.  Open loop: [due] holds every arrival as an
   offset from load start.  Closed loop: [due] is empty and [write]/[lba]
   are cycled. *)
type inputs = { due : Time.t array; write : bool array; lba : int64 array }

let lba_space = 1 lsl 20
let cycle = 4096

let lbas prng n = Array.init n (fun _ -> Int64.of_int (Prng.int prng lba_space * 8))

(* Each request's kind is an independent draw. *)
let random_mix prng ~read_ratio n = Array.init n (fun _ -> not (Prng.bool prng read_ratio))

(* Reads and writes interleave on a fixed schedule (one write in five at
   80% reads), as a paced load generator issues them. *)
let paced_mix ~read_ratio n =
  let credit = ref 0.0 in
  Array.init n (fun _ ->
      credit := !credit +. read_ratio;
      if !credit >= 1.0 then begin
        credit := !credit -. 1.0;
        false
      end
      else true)

let arrivals ~length next_gap =
  let acc = ref [] and t = ref (next_gap ()) in
  while Time.(!t < length) do
    acc := !t :: !acc;
    t := Time.add !t (next_gap ())
  done;
  Array.of_list (List.rev !acc)

let poisson prng ~rate ~length =
  let mean = 1e9 /. rate in
  arrivals ~length (fun () -> Time.max (Time.ns 1) (Time.of_float_ns (Prng.exponential prng ~mean)))

(* Evenly paced with a +-5% dither so streams do not phase-lock; the first
   arrival falls at a random phase of one period. *)
let cbr prng ~rate ~length =
  let period = 1e9 /. rate in
  let first = ref true in
  arrivals ~length (fun () ->
      let gap = if !first then Prng.float prng *. period else period *. Prng.float_range prng 0.95 1.05 in
      first := false;
      Time.max (Time.ns 1) (Time.of_float_ns gap))

let open_loop prng ~pacing ~mix ~rate ~read_ratio ~length =
  let due = match pacing with `Poisson -> poisson prng ~rate ~length | `Cbr -> cbr prng ~rate ~length in
  let n = Array.length due in
  let write =
    match mix with `Random -> random_mix prng ~read_ratio n | `Paced -> paced_mix ~read_ratio n
  in
  { due; write; lba = lbas prng n }

let closed_loop prng ~read_ratio =
  { due = [||]; write = random_mix prng ~read_ratio cycle; lba = lbas prng cycle }

(* ---------------- replay ---------------- *)

type stream = {
  sim : Sim.t;
  client : Client_lib.t;
  tenant : int;
  bytes : int;
  slo_ns : Time.t;  (** latency bound of an LC tenant; 0 for best effort *)
  inp : inputs;
  spans : Spans.t;
  mutable next : int;  (** closed loop: next input index *)
  mutable issued : int;
  mutable completed : int;
  mutable failed : int;
  mutable slo_met : int;
  mutable window_done : int;  (** completions inside the measurement window *)
  reads : Hdr.t;  (** latencies of reads due inside the window; may be shared *)
  writes : Hdr.t;
  mutable win_start : Time.t;
  mutable win_stop : Time.t;
}

(* [reads]/[writes] default to fresh histograms; streams may share them
   when only the aggregate is wanted. *)
let stream sim spans client ~tenant ~bytes ~slo_ns ?(reads = Hdr.create ()) ?(writes = Hdr.create ())
    inp =
  {
    sim;
    client;
    tenant;
    bytes;
    slo_ns;
    inp;
    spans;
    next = 0;
    issued = 0;
    completed = 0;
    failed = 0;
    slo_met = 0;
    window_done = 0;
    reads;
    writes;
    win_start = Time.zero;
    win_stop = Time.zero;
  }

let lc s = Time.(s.slo_ns > Time.zero)

(* Requests are issued at their due time, so the client's latency — which
   includes client-side queueing — is the latency from the due time. *)
let complete s ~write status ~latency =
  s.completed <- s.completed + 1;
  match status with
  | Message.Ok ->
    let now = Sim.now s.sim in
    let due = Time.sub now latency in
    if Time.(due >= s.win_start && due < s.win_stop) then
      Hdr.record (if write then s.writes else s.reads) latency;
    if Time.(now >= s.win_start && now < s.win_stop) then s.window_done <- s.window_done + 1;
    if lc s && Time.(latency <= s.slo_ns) then s.slo_met <- s.slo_met + 1
  | _ -> s.failed <- s.failed + 1

let send s i k =
  let lba = s.inp.lba.(i) in
  if s.inp.write.(i) then Client_lib.write s.client ~lba ~len:s.bytes k
  else Client_lib.read s.client ~lba ~len:s.bytes k

let issue s i ~on_read ~on_write =
  s.issued <- s.issued + 1;
  let k = if s.inp.write.(i) then on_write else on_read in
  if not s.spans.Spans.on then send s i k
  else begin
    let req = Int64.to_int (Client_lib.next_req_id s.client) in
    let sp = Spans.enter s.spans Spans.Issue ~tenant:s.tenant ~req in
    let rq = Spans.sim_open s.spans ~start:(Sim.now s.sim) ~tenant:s.tenant ~req in
    send s i (fun st ~latency ->
        Spans.sim_close s.spans rq ~stop:(Sim.now s.sim);
        k st ~latency);
    Spans.leave s.spans sp
  end

let set_window s ~t0 ~warmup ~window =
  s.win_start <- Time.add t0 warmup;
  s.win_stop <- Time.add s.win_start window

(* Open loop: one chained event calls [f i] at [t0 + due.(i)] for every
   arrival, whatever the state of earlier requests. *)
let replay sim ~t0 due f =
  let n = Array.length due and next = ref 0 in
  let rec arrive () =
    let i = !next in
    next := i + 1;
    f i;
    if i + 1 < n then ignore (Sim.at sim (Time.add t0 due.(i + 1)) arrive)
  in
  if n > 0 then ignore (Sim.at sim (Time.add t0 due.(0)) arrive)

let start_open s ~warmup ~window =
  let t0 = Sim.now s.sim in
  set_window s ~t0 ~warmup ~window;
  let on_read = complete s ~write:false and on_write = complete s ~write:true in
  replay s.sim ~t0 s.inp.due (fun i -> issue s i ~on_read ~on_write)

(* Closed loop: [depth] requests outstanding; each completion issues the
   next one after [think], until the load stops.  Like every issue, the
   first ones fire from simulation events, inside [Sim.run]. *)
let start_closed s ~depth ~think ~warmup ~window =
  let t0 = Sim.now s.sim in
  set_window s ~t0 ~warmup ~window;
  let stop = s.win_stop in
  let n = Array.length s.inp.write in
  let rec next () =
    if Time.(Sim.now s.sim < stop) then begin
      let i = s.next mod n in
      s.next <- s.next + 1;
      issue s i ~on_read ~on_write
    end
  and again () = if Time.(think > Time.zero) then ignore (Sim.after s.sim think next) else next ()
  and on_read st ~latency =
    complete s ~write:false st ~latency;
    again ()
  and on_write st ~latency =
    complete s ~write:true st ~latency;
    again ()
  in
  for _ = 1 to depth do
    ignore (Sim.at s.sim t0 next)
  done

let window_iops s ~window = float_of_int s.window_done /. Time.to_float_sec window

(* Exact rendering of everything a stream measured, for the digest. *)
let hist_row h =
  Printf.sprintf "n=%d mean=%.17g p50=%Ld p95=%Ld p99=%Ld max=%Ld" (Hdr.count h) (Hdr.mean h)
    (Hdr.percentile h 50.0) (Hdr.percentile h 95.0) (Hdr.percentile h 99.0) (Hdr.max_value h)

let counts_row s =
  Printf.sprintf "tenant=%d issued=%d completed=%d failed=%d slo_met=%d window=%d" s.tenant s.issued
    s.completed s.failed s.slo_met s.window_done

let row s = Printf.sprintf "%s reads[%s] writes[%s]" (counts_row s) (hist_row s.reads) (hist_row s.writes)
