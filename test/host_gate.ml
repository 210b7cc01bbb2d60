(* Host-time gates: the wall-clock floors and overhead budgets that no
   deterministic test can hold, because they measure this machine as much
   as the code.  `make host-gate` runs it (and `make check` right after
   `dune runtest`); it takes no arguments, prints one line per gate and
   exits 1 when any gate fails, naming it.

   - churn: bare event churn reaches 0.8x [wheel_floor] events/s;
   - armed-recorder churn: the same churn writing one flight record per
     hop, best of [reps], also reaches 0.8x [wheel_floor];
   - flight sweep: the flight-armed open-loop sweep stays within 10% of
     the recorder-off sweep on the best of [reps] back-to-back pairs;
   - rack balancer: the po2c rack's best inert run reaches 0.8x
     [rack_floor] balanced requests/s;
   - rack_obs: its best tracer-armed run reaches 0.8x [rack_obs_floor];
   - rack tracer: armed within 10% of inert on the best of [reps] pairs.

   It also prints the telemetry on/off sweep wall overhead, ungated.  The
   simulated results these runs produce are held bit-identical by the
   alcotest suites, not here. *)

open Reflex_engine
open Reflex_client
open Reflex_experiments
open Reflex_telemetry
module Flight = Reflex_obs.Flight
module Rack_obs = Reflex_rack_obs.Rack_obs

(* Events/sec floors, failing below 0.8x: about a third of a quiet-machine
   measurement (the Sim event loop ~8.5M events/s, the po2c balancer ~80K
   requests/s) so CI noise does not trip them.  Raise one deliberately
   when its path gets faster. *)
let wheel_floor = 2_800_000.0
let rack_floor = 25_000.0
let rack_obs_floor = 20_000.0

let world_seed = 0x5EED_0BEAC4L
let rates = [ 40e3; 80e3; 120e3; 160e3 ]
let reps = 3

let failed = ref false

let gate name ok detail =
  Printf.printf "%s %s: %s\n%!" (if ok then "ok  " else "FAIL") name detail;
  if not ok then failed := true

let floor_gate name ~floor ~unit rate =
  gate name (rate >= 0.8 *. floor)
    (Printf.sprintf "%.0f %s/s, %.2fx the %.0f floor (gate 0.8x)" rate unit (rate /. floor) floor)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let eps n wall = if wall > 0.0 then float_of_int n /. wall else 0.0
let pct_over ~base x = if base > 0.0 then (x -. base) /. base *. 100.0 else 0.0

(* [n] back-to-back (base, armed) runs, so machine-load swings hit both
   sides of each pair alike. *)
let rec pairs n ~base ~armed =
  if n = 0 then []
  else
    let b = base () in
    let a = armed () in
    (b, a) :: pairs (n - 1) ~base ~armed

(* The pair with the best armed/base ratio under [better]. *)
let best_pair better = function
  | [] -> invalid_arg "best_pair"
  | p :: ps ->
    List.fold_left
      (fun (b, a) (b', a') -> if better (a' /. b') (a /. b) then (b', a') else (b, a))
      p ps

(* ---------------- Open-loop sweep ---------------- *)

(* One sweep point of a single-core world at offered [rate].  A flight
   recorder is attached before the world is built (components cache the
   handle at create time), so scheduler rounds and dataplane cycles write
   ring records on every hop. *)
let point ?(telemetry = false) ?flight rate =
  let telemetry = if telemetry then Telemetry.create () else Telemetry.disabled in
  Option.iter (Telemetry.set_flight telemetry) flight;
  let w = Common.make_reflex ~telemetry ~seed:world_seed () in
  let sim = w.Common.sim in
  let client = Common.client_of w ~tenant:1 () in
  let until = Time.add (Sim.now sim) (Time.ms 60) in
  let gen =
    Load_gen.open_loop sim ~client ~rate ~read_ratio:1.0 ~bytes:4096 ~until ~seed:3L ()
  in
  Common.measure_generators sim [ gen ] ~warmup:(Time.ms 10) ~window:(Time.ms 40)

(* Wall seconds of [reps] back-to-back (base, armed) serial sweeps. *)
let paired_sweeps ~base ~armed =
  let sweep mk () = fst (timed (fun () -> List.iter mk rates)) in
  pairs reps ~base:(sweep base) ~armed:(sweep armed)

(* ---------------- Event churn ---------------- *)

(* Self-rescheduling chains with prng strides and a cancelled decoy every
   fourth hop; with a [recorder], one flight record per hop.  Returns
   events/sec. *)
let churn ?recorder () =
  let chains = 64 and hops = 1000 in
  let sim = Sim.create () in
  for c = 0 to chains - 1 do
    let prng = Prng.create (Int64.of_int ((c * 7919) + 17)) in
    let remaining = ref hops in
    let decoy = ref None in
    let rec hop () =
      (match !decoy with
      | Some id ->
        Sim.cancel sim id;
        decoy := None
      | None -> ());
      if !remaining > 0 then begin
        decr remaining;
        (match recorder with
        | Some r ->
          Flight.record r ~now:(Sim.now sim) ~kind:Flight.Kind.Queue_depth ~a:c ~b:!remaining
            ~v:0.0
        | None -> ());
        let stride = 1 + Prng.int prng 65536 in
        ignore (Sim.after sim (Time.ns stride) hop);
        if !remaining land 3 = 0 then
          decoy := Some (Sim.after sim (Time.us 500) (fun () -> decoy := None))
      end
    in
    ignore (Sim.at sim (Time.ns (c + 1)) hop)
  done;
  Gc.full_major ();
  let wall, n = timed (fun () -> Sim.run sim) in
  eps n wall

(* ---------------- Rack ---------------- *)

let rack_slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100

(* The po2c rack world: 8 servers, 64 LC tenants with 3-way replica sets,
   probe ticks every 250us, one 1KB CBR read stream per tenant every
   500us, with the distributed tracer optionally armed end-to-end (five
   hop stamps per request into per-server flight rings).  Returns
   balanced requests/sec (one "event" is one request through pick +
   ingress charge + dispatch). *)
let rack_run ~armed () =
  let open Reflex_rack in
  let sim = Sim.create ~seed:7L () in
  let rack = Rack.create sim ~n_servers:8 ~policy:Policy.Po2c ~seed:0xBE11L () in
  if armed then ignore (Rack_obs.create rack);
  for id = 1 to 64 do
    ignore (Rack.add_tenant rack ~id ~slo:rack_slo ~replicas:3)
  done;
  let t0 = Sim.now sim in
  let t_end = Time.add t0 (Time.ms 10) in
  Sim.every sim ~every:(Time.us 250) ~until:t_end (fun _ -> Rack.sample_probes rack);
  for id = 1 to 64 do
    let prng = Prng.create (Int64.of_int ((id * 7919) + 3)) in
    let phase = Time.of_float_us (Prng.float prng *. 500.0) in
    ignore
      (Sim.at sim (Time.add t0 phase) (fun () ->
           Sim.every sim ~every:(Time.of_float_us 500.0) ~until:t_end (fun _ ->
               Rack.dispatch_read rack ~tenant:id
                 ~lba:(Int64.of_int (Prng.int prng 65536 * 8))
                 ~len:1024 ())))
  done;
  let wall, _ = timed (fun () -> Sim.run sim) in
  eps (Rack.lc_dispatched rack) wall

(* ---------------- The gates ---------------- *)

let () =
  (* Telemetry's wall overhead on the sweep, summed over the pairs. *)
  let walls = paired_sweeps ~base:(point ~telemetry:false) ~armed:(point ~telemetry:true) in
  let off_s = List.fold_left (fun s (b, _) -> s +. b) 0.0 walls
  and on_s = List.fold_left (fun s (_, a) -> s +. a) 0.0 walls in
  Printf.printf
    "     telemetry: off %.2fs / on %.2fs over %dx%d points -> %+.1f%% wall (ungated)\n%!" off_s
    on_s reps (List.length rates) (pct_over ~base:off_s on_s);
  floor_gate "churn" ~floor:wheel_floor ~unit:"events" (churn ());
  let recorder = Flight.create () in
  let armed_eps = List.fold_left Float.max 0.0 (List.init reps (fun _ -> churn ~recorder ())) in
  floor_gate "armed-recorder churn" ~floor:wheel_floor ~unit:"events" armed_eps;
  let base, arm =
    best_pair ( < )
      (paired_sweeps ~base:(point ~telemetry:true) ~armed:(fun r ->
           point ~telemetry:true ~flight:(Flight.create ()) r))
  in
  gate "flight sweep" (arm <= 1.10 *. base)
    (Printf.sprintf
       "recorder-off %.2fs / armed %.2fs (best pair of %d) -> %+.1f%% (budget 5%%, gate 10%%)" base
       arm reps (pct_over ~base arm));
  let rack_pairs = pairs reps ~base:(rack_run ~armed:false) ~armed:(rack_run ~armed:true) in
  floor_gate "rack balancer" ~floor:rack_floor ~unit:"requests"
    (List.fold_left (fun acc (i, _) -> Float.max acc i) 0.0 rack_pairs);
  floor_gate "rack_obs" ~floor:rack_obs_floor ~unit:"requests"
    (List.fold_left (fun acc (_, a) -> Float.max acc a) 0.0 rack_pairs);
  let inert, armed = best_pair ( > ) rack_pairs in
  gate "rack tracer" (armed >= 0.90 *. inert)
    (Printf.sprintf
       "inert %.0f req/s, traced %.0f req/s (best pair of %d) -> %+.1f%% (budget 5%%, gate 10%%)"
       inert armed reps (-.pct_over ~base:inert armed));
  if !failed then exit 1
