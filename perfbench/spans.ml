(* Bench-side span recorder for the traced run.

   Spans are recorded only from benchmark code, around each call it makes
   into a layer of the program, plus one span per [Sim.run] slice that
   parents the calls fired inside it.  Storage is a set of preallocated
   arrays filled in order, so recording a span allocates nothing; the
   JSONL file is written once, when the run ends.  Host spans are timed
   with the monotonic ns clock; [Request] spans are in simulated ns (the
   due time to the completion callback).  Spans that do not fit are
   counted in [dropped], never recorded partially. *)

type kind =
  | Drive  (** all slices of one rep, in order *)
  | Slice  (** one [Sim.run] call of at most 10 ms simulated *)
  | Issue  (** [Client_lib.read]/[write] *)
  | Register  (** connect + register + the drive that lands the verdict *)
  | Dispatch  (** [Rack.dispatch_read] *)
  | Probe  (** [Rack.sample_probes] and the skew check it feeds *)
  | Report  (** percentile and table renders *)
  | Export  (** [Trace_export.to_chrome_json] + [Slo_audit.report] *)
  | Rollup  (** [Rack_rollup.stitch]/[chrome_trace] + [Rack_obs.attribution] *)
  | Request  (** one request, simulated time *)

let name = function
  | Drive -> "bench.drive"
  | Slice -> "engine.slice"
  | Issue -> "client.issue"
  | Register -> "core.register"
  | Dispatch -> "rack.dispatch"
  | Probe -> "rack.probe"
  | Report -> "stats.report"
  | Export -> "telemetry.export"
  | Rollup -> "rack_obs.rollup"
  | Request -> "request"

type t = {
  on : bool;
  kind : kind array;
  start : int array;
  stop : int array;
  parent : int array;
  tenant : int array;
  req : int array;
  mutable n : int;
  mutable current : int;  (** innermost open host span, -1 at top level *)
  mutable dropped : int;
}

let make ~on cap =
  let a () = Array.make cap 0 in
  {
    on;
    kind = Array.make cap Drive;
    start = a ();
    stop = a ();
    parent = a ();
    tenant = a ();
    req = a ();
    n = 0;
    current = -1;
    dropped = 0;
  }

(* The untraced recorder: every operation returns after one bool test. *)
let off = make ~on:false 0
let create cap = make ~on:true cap

let reset t =
  t.n <- 0;
  t.current <- -1;
  t.dropped <- 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let alloc t k ~tenant ~req =
  if t.n >= Array.length t.kind then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.kind.(i) <- k;
    t.parent.(i) <- t.current;
    t.tenant.(i) <- tenant;
    t.req.(i) <- req;
    t.stop.(i) <- -1;
    i
  end

(* [enter]/[leave] nest: a span opened while another is open becomes its
   child.  The clock is read last on entry and first on exit, so the
   bookkeeping sits outside the measured interval. *)
let enter t k ~tenant ~req =
  if not t.on then -1
  else begin
    let i = alloc t k ~tenant ~req in
    if i >= 0 then begin
      t.current <- i;
      t.start.(i) <- now_ns ()
    end;
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now_ns ();
    t.current <- t.parent.(i)
  end

(* A simulated-time request span, child of the span open at issue. *)
let sim_open t ~start ~tenant ~req =
  if not t.on then -1
  else begin
    let i = alloc t Request ~tenant ~req in
    if i >= 0 then t.start.(i) <- Int64.to_int start;
    i
  end

let sim_close t i ~stop = if i >= 0 then t.stop.(i) <- Int64.to_int stop

let closed t i = t.stop.(i) >= 0
let duration t i = t.stop.(i) - t.start.(i)
let is_sim t i = t.kind.(i) = Request

(* Self time of every closed host span: its duration minus the part its
   host-clock children cover. *)
let self_times t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 && closed t i && not (is_sim t i) then child.(p) <- child.(p) + duration t i
  done;
  Array.init t.n (fun i -> if closed t i then duration t i - child.(i) else 0)

(* Durations of the closed spans of kind [k], in recording order. *)
let durations t k =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.kind.(i) = k && closed t i then acc := duration t i :: !acc
  done;
  Array.of_list !acc

let self_total t self k =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if t.kind.(i) = k then s := !s + self.(i)
  done;
  !s

let unclosed t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if not (closed t i) then incr c
  done;
  !c

(* One JSON object per line, in recording order (parents precede their
   children).  [self_ns] is -1 on simulated-time spans. *)
let write_jsonl t path =
  let self = self_times t in
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"clock\":\"%s\",\"start\":%d,\"end\":%d,\"self_ns\":%d,\"parent\":%d,\"tenant\":%d,\"req\":%d}\n"
      i
      (name t.kind.(i))
      (if is_sim t i then "sim_ns" else "host_ns")
      t.start.(i) t.stop.(i)
      (if is_sim t i then -1 else self.(i))
      t.parent.(i) t.tenant.(i) t.req.(i)
  done;
  close_out oc
