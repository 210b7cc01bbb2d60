(* Bench smoke: a fast exit-0/1 gate over the experiment plumbing and the
   observability contracts.  A tiny open-loop sweep must render the same
   table through the parallel runner as serially; telemetry, an
   empty-plan fault injector, the monitor and the flight recorder must
   each leave the simulated results bit-identical (their wall overhead is
   reported); event churn and the rack balancer must hold their
   BENCH_BASELINE.json floors; the rack tracer must tile and stay within
   its budget; and the live tree must lint clean.

   Run by `dune runtest`, which writes the numbers to bench_smoke.json
   (`--json PATH`); `make check` copies that file to BENCH_SMOKE.json. *)

open Reflex_engine
open Reflex_client
open Reflex_experiments
open Reflex_telemetry
module Flight = Reflex_obs.Flight
module Flight_dump = Reflex_obs.Flight_dump
module Te = Reflex_obs.Trace_event
module Rack_obs = Reflex_rack_obs.Rack_obs

(* Root seed for every world this smoke builds, recorded in the JSON
   metadata so an archived result names the exact simulation it ran. *)
let world_seed = 0x5EED_0BEAC4L

(* The JSON record: each leg adds its section; written once at the end. *)
let fields = ref []
let field key v = fields := (key, v) :: !fields

(* One gate verdict: the OK line, or the FAILED line of the first failing
   check.  Any failure makes the smoke exit 1. *)
let failed = ref false

let verdict ~ok checks =
  match List.find_opt (fun (pass, _) -> not pass) checks with
  | None -> print_endline ("bench smoke OK: " ^ ok)
  | Some (_, msg) ->
    failed := true;
    print_endline ("bench smoke FAILED: " ^ msg)

(* One sweep point of a single-core world at offered [rate]; returns
   (rate, achieved KIOPS, p95 µs, final sim time). *)
let point ?(telemetry = false) ?(faults = false) ?(monitor = false) ?flight rate =
  let telemetry = if telemetry then Telemetry.create () else Telemetry.disabled in
  (* A flight recorder is attached BEFORE the world is built (components
     cache the handle at create time): scheduler rounds and dataplane
     cycles then write ring records on every hop. *)
  Option.iter (Telemetry.set_flight telemetry) flight;
  let w = Common.make_reflex ~telemetry ~seed:world_seed () in
  let sim = w.Common.sim in
  (* An injector with an EMPTY plan: merely having the subsystem present
     must cost nothing. *)
  if faults then
    ignore
      (Reflex_faults.Injector.arm
         (Reflex_faults.Injector.target ~sim ~fabric:w.Common.fabric ~server:w.Common.server ())
         ~plan:[]);
  (* The full alerting pipeline (TSDB daemon tick, budgets, burn/knee/
     anomaly rules) with no bindings: it may watch but never mutate. *)
  if monitor then begin
    let m = Reflex_monitor.Monitor.create ~server:w.Common.server ~telemetry () in
    Reflex_monitor.Monitor.start m sim ()
  end;
  let client = Common.client_of w ~tenant:1 () in
  let until = Time.add (Sim.now sim) (Time.ms 60) in
  let gen =
    Load_gen.open_loop sim ~client ~rate ~read_ratio:1.0 ~bytes:4096 ~until ~seed:3L ()
  in
  Common.measure_generators sim [ gen ] ~warmup:(Time.ms 10) ~window:(Time.ms 40);
  (rate, Load_gen.achieved_iops gen /. 1e3, Load_gen.p95_read_us gen, Sim.now sim)

let rates = [ 40e3; 80e3; 120e3; 160e3 ]
let reps = 3

let table rows =
  let t =
    Reflex_stats.Table.create ~title:"bench smoke: tiny open-loop sweep"
      ~columns:[ "offered KIOPS"; "achieved KIOPS"; "p95 (us)" ]
  in
  List.iter
    (fun (rate, kiops, p95, _) ->
      Reflex_stats.Table.add_row t
        [
          Reflex_stats.Table.cell_f (rate /. 1e3);
          Reflex_stats.Table.cell_f ~decimals:6 kiops;
          Reflex_stats.Table.cell_f ~decimals:6 p95;
        ])
    rows;
  Reflex_stats.Table.render t

let same_results =
  List.for_all2 (fun (_, k0, p0, _) (_, k1, p1, _) -> Float.equal k0 k1 && Float.equal p0 p1)

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

(* An observer's off-vs-on leg: [reps] pairs of serial sweeps.  Returns
   each pair's (base, armed) wall seconds and the last pair's rows. *)
let paired_leg ~base ~armed =
  let sweep mk () = timed (fun () -> List.map mk rates) in
  let ps = pairs reps ~base:(sweep base) ~armed:(sweep armed) in
  let (_, base_rows), (_, armed_rows) = List.nth ps (reps - 1) in
  (List.map (fun ((b, _), (a, _)) -> (b, a)) ps, base_rows, armed_rows)

(* The summed-wall form of [paired_leg], for observers whose overhead is
   reported rather than gated. *)
let summed_leg name ~off ~on ~base ~armed =
  let walls, base_rows, armed_rows = paired_leg ~base ~armed in
  let off_s = List.fold_left (fun s (b, _) -> s +. b) 0.0 walls
  and on_s = List.fold_left (fun s (_, a) -> s +. a) 0.0 walls in
  let overhead = pct_over ~base:off_s on_s in
  Printf.printf "[%s: %s %.2fs / %s %.2fs over %dx%d points -> %+.1f%% wall overhead]\n" name off
    off_s on on_s reps (List.length rates) overhead;
  ( [ ("off_wall_s", Te.Num off_s); ("on_wall_s", Te.Num on_s); ("overhead_pct", Te.Num overhead) ],
    base_rows,
    armed_rows )

(* ---------------- Event churn ---------------- *)

(* Self-rescheduling chains with prng strides and a cancelled decoy every
   fourth hop; with a [recorder], one flight record per hop.  Returns
   (events, final sim time, events/sec, minor words/event). *)
let speed_run ?recorder () =
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
  let mw0 = Gc.minor_words () in
  let wall, n = timed (fun () -> Sim.run sim) in
  let mw = Gc.minor_words () -. mw0 in
  (n, Sim.now sim, eps n wall, if n > 0 then mw /. float_of_int n else 0.0)

(* Best-of-[reps] events/sec (max damps scheduler noise on shared CI). *)
let best_churn recorder =
  let runs = List.init reps (fun _ -> speed_run ~recorder ()) in
  let n, now, _, _ = List.hd runs in
  (n, now, List.fold_left (fun acc (_, _, e, _) -> Float.max acc e) 0.0 runs)

(* One alert-capable monitored world with the recorder armed; the digest
   of its forensic debrief must be identical across same-seed reruns. *)
let flight_debrief_digest () =
  let fl = Flight.create () in
  let _, _, _, now = point ~telemetry:true ~monitor:true ~flight:fl 120e3 in
  let snap = Flight.snapshot fl ~now ~window:(Time.ms 5) in
  Digest.to_hex (Digest.string (Flight_dump.debrief snap))

(* ---------------- Rack worlds ---------------- *)

(* One 1KB CBR read stream per tenant every 500us, phase-shifted by the
   tenant's own prng, until [t_end]. *)
let read_streams sim rack ~tenants ~mult ~add ~t0 ~t_end =
  let open Reflex_rack in
  for id = 1 to tenants do
    let prng = Prng.create (Int64.of_int ((id * mult) + add)) in
    let phase = Time.of_float_us (Prng.float prng *. 500.0) in
    ignore
      (Sim.at sim (Time.add t0 phase) (fun () ->
           Sim.every sim ~every:(Time.of_float_us 500.0) ~until:t_end (fun _ ->
               Rack.dispatch_read rack ~tenant:id
                 ~lba:(Int64.of_int (Prng.int prng 65536 * 8))
                 ~len:1024 ())))
  done

let rack_slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100

(* The po2c rack world: 8 servers, 64 LC tenants with 3-way replica sets,
   probe ticks every 250us, with the distributed tracer optionally armed
   end-to-end (per-request trace slots, five hop stamps into per-server
   flight rings, per-hop attribution histograms).  Returns balanced
   requests, requests/sec (one "event" is one request through pick +
   ingress charge + dispatch) and the tracer. *)
let rack_traced_run ~armed () =
  let open Reflex_rack in
  let sim = Sim.create ~seed:7L () in
  let rack = Rack.create sim ~n_servers:8 ~policy:Policy.Po2c ~seed:0xBE11L () in
  let obs = if armed then Some (Rack_obs.create rack) else None in
  for id = 1 to 64 do
    ignore (Rack.add_tenant rack ~id ~slo:rack_slo ~replicas:3)
  done;
  let t0 = Sim.now sim in
  let t_end = Time.add t0 (Time.ms 10) in
  Sim.every sim ~every:(Time.us 250) ~until:t_end (fun _ -> Rack.sample_probes rack);
  read_streams sim rack ~tenants:64 ~mult:7919 ~add:3 ~t0 ~t_end;
  let wall, _ = timed (fun () -> Sim.run sim) in
  let n = Rack.lc_dispatched rack in
  (n, eps n wall, obs)

(* Skew-driven migration micro: 24 tenants all placed on server 0; the
   skew detector must move some of them. *)
let rack_migration_run () =
  let open Reflex_rack in
  let sim = Sim.create ~seed:9L () in
  let rack = Rack.create sim ~n_servers:8 ~policy:Policy.Po2c ~seed:0x3160L () in
  for id = 1 to 24 do
    ignore (Rack.add_tenant_on rack ~id ~slo:rack_slo ~server:0)
  done;
  let t0 = Sim.now sim in
  let t_end = Time.add t0 (Time.ms 10) in
  let sk = Skew.create ~cooldown:(Time.us 500) () in
  Sim.every sim ~every:(Time.us 250) ~until:t_end (fun now ->
      Rack.sample_probes rack;
      match Skew.observe sk ~now ~depths:(Rack.sampled_depths rack) with
      | None -> ()
      | Some hot -> (
        match Rack.hottest_tenant_on rack ~server:hot with
        | None -> ()
        | Some victim -> ignore (Rack.rebalance rack ~tenant:victim)));
  read_streams sim rack ~tenants:24 ~mult:104729 ~add:11 ~t0 ~t_end;
  ignore (Sim.run sim);
  Rack.migrations rack

(* ---------------- Baseline floors and lint ---------------- *)

(* The static-analysis gate and the floors both read files at the repo
   root, found by walking up to lint.manifest: this works from the repo
   root and from _build/default/test (the runtest rule depends on the
   source tree). *)
let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "lint.manifest") then dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith "lint.manifest not found above cwd" else find_root parent

let root = find_root (Sys.getcwd ())

(* Lines of OCaml (.ml + .mli, test fixtures included) under [dir]: the
   code-size trend ROADMAP.md tracks.  Counted as newlines, as `wc -l`
   counts them; the interfaces dune generates for executables hold no
   newline, so counting inside _build adds nothing for them. *)
let rec ocaml_lines dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then if name.[0] = '.' then acc else acc + ocaml_lines path
      else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then begin
        let s = In_channel.with_open_bin path In_channel.input_all in
        let n = ref 0 in
        String.iter (fun c -> if c = '\n' then incr n) s;
        acc + !n
      end
      else acc)
    0 (Sys.readdir dir)

(* Pull "<name>_events_per_sec": <float> out of BENCH_BASELINE.json with
   a plain substring scan — the file is ours, flat, and checked in, so a
   JSON parser dependency would be overkill. *)
let baseline_events_per_sec name =
  let path = Filename.concat root "BENCH_BASELINE.json" in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let key = "\"" ^ name ^ "_events_per_sec\":" in
    let n = String.length s and m = String.length key in
    let rec find i =
      if i + m > n then None else if String.sub s i m = key then Some (i + m) else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
      let b = Buffer.create 16 in
      let j = ref i in
      while
        !j < n
        && (match s.[!j] with '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' | ' ' -> true | _ -> false)
      do
        if s.[!j] <> ' ' then Buffer.add_char b s.[!j];
        incr j
      done;
      float_of_string_opt (Buffer.contents b)
  end

(* [eps] must reach 0.8x the [name] floor; a missing floor skips. *)
let floor_ok what name eps =
  match baseline_events_per_sec name with
  | Some b when b > 0.0 ->
    let ratio = eps /. b in
    Printf.printf "[%s: %.2fx the %s BENCH_BASELINE.json floor]\n" what ratio name;
    ratio >= 0.8
  | _ ->
    Printf.printf "[%s: no %s baseline floor found, gate skipped]\n" what name;
    true

(* The full lint pass, serial (timed) and with --jobs 2: the linter's own
   determinism contract (byte-identical reports for any --jobs) is part
   of the gate. *)
let run_lint () =
  let manifest_path = Filename.concat root "lint.manifest" in
  let wall, r = timed (fun () -> Lint_driver.run ~root ~manifest_path ()) in
  let r2 = Lint_driver.run ~jobs:2 ~root ~manifest_path () in
  let jobs_eq =
    Lint_driver.to_text r = Lint_driver.to_text r2 && Lint_driver.to_json r = Lint_driver.to_json r2
  in
  (r, wall, jobs_eq)

(* ---------------- The gate ---------------- *)

let () =
  let json_path =
    match Array.to_list Sys.argv with _ :: "--json" :: p :: _ -> Some p | _ -> None
  in
  field "seed" (Te.Int (Int64.to_int world_seed));
  field "git_sha" (Te.Str (Common.git_sha ()));
  field "lines"
    (Te.Obj
       [
         ("lib", Te.Int (ocaml_lines (Filename.concat root "lib")));
         ("test", Te.Int (ocaml_lines (Filename.concat root "test")));
       ]);
  (* Parallel runner: fan-out and ordered merge render the serial table. *)
  let wall_parallel, rows = timed (fun () -> Runner.map ~jobs:2 point rates) in
  let parallel = table rows in
  let serial = table (Runner.map ~jobs:1 point rates) in
  print_string parallel;
  Printf.printf "[bench smoke: %d points through the parallel runner in %.1fs]\n"
    (List.length rates) wall_parallel;
  let parallel_eq = String.equal parallel serial in
  verdict ~ok:"parallel == serial" [ (parallel_eq, "parallel and serial tables differ") ];
  if not parallel_eq then print_string serial;
  field "parallel_eq_serial" (Te.Bool parallel_eq);
  field "wall_s_parallel" (Te.Num wall_parallel);
  (* Telemetry observes, never perturbs: the span ring, counters and
     daemon sampler schedule no work the simulation sees. *)
  let t_fields, off_rows, on_rows =
    summed_leg "telemetry" ~off:"off" ~on:"on" ~base:(point ~telemetry:false)
      ~armed:(point ~telemetry:true)
  in
  let iops_delta_pct =
    List.fold_left2
      (fun acc (_, k0, _, _) (_, k1, _, _) ->
        Float.max acc (if k0 = 0.0 then 0.0 else Float.abs (k1 -. k0) /. k0 *. 100.0))
      0.0 off_rows on_rows
  in
  Printf.printf "[telemetry: %.4f%% sim IOPS delta]\n" iops_delta_pct;
  field "telemetry" (Te.Obj (t_fields @ [ ("iops_delta_pct", Te.Num iops_delta_pct) ]));
  verdict ~ok:"telemetry-on results == telemetry-off"
    [ (same_results off_rows on_rows, "telemetry perturbed the simulated results") ];
  (* A disarmed fault subsystem: the hot paths pay one boolean test per
     fault class. *)
  let f_fields, f_off, f_on =
    summed_leg "faults" ~off:"no-injector" ~on:"empty-plan" ~base:point
      ~armed:(point ~faults:true)
  in
  let f_identical = same_results f_off f_on in
  field "faults_disabled" (Te.Obj (f_fields @ [ ("results_identical", Te.Bool f_identical) ]));
  verdict ~ok:"empty-plan injector results == no injector"
    [ (f_identical, "disarmed fault subsystem perturbed the results") ];
  (* The monitor armed as a pure observer over a telemetry-on world. *)
  let m_fields, m_off, m_on =
    summed_leg "monitor" ~off:"unarmed" ~on:"armed" ~base:(point ~telemetry:true)
      ~armed:(point ~telemetry:true ~monitor:true)
  in
  let m_identical = same_results m_off m_on in
  field "monitor" (Te.Obj (m_fields @ [ ("results_identical", Te.Bool m_identical) ]));
  verdict ~ok:"armed monitor results == no monitor"
    [ (m_identical, "the monitor perturbed the simulated results") ];
  (* Event churn, bare and with one flight record per hop against an
     inert ([enabled:false]) and an armed recorder: both take the same
     code path up to the recorder's immutable bool, so the delta is the
     marginal cost of writing records.  The armed run must still clear
     the wheel floor. *)
  let s_events, _, w_eps, w_mwpe = speed_run () in
  Printf.printf "[speed: %.0f events/s (%.2f mw/ev), %d events]\n" w_eps w_mwpe s_events;
  field "speed"
    (Te.Obj
       [
         ("events", Te.Int s_events);
         ("wheel_events_per_sec", Te.Num w_eps);
         ("wheel_minor_words_per_event", Te.Num w_mwpe);
       ]);
  let o_in, o_inow, o_inert_eps = best_churn (Flight.create ~enabled:false ()) in
  let o_an, o_anow, o_armed_eps = best_churn (Flight.create ()) in
  let o_identical = o_in = o_an && o_inow = o_anow in
  let o_churn_pct = -.pct_over ~base:o_inert_eps o_armed_eps in
  let o_ns_per_record =
    if o_armed_eps > 0.0 && o_inert_eps > 0.0 then (1e9 /. o_armed_eps) -. (1e9 /. o_inert_eps)
    else 0.0
  in
  Printf.printf
    "[obs: inert recorder %.0f events/s, armed %.0f events/s -> %+.1f%% on bare churn, %.0f \
     ns/record]\n"
    o_inert_eps o_armed_eps o_churn_pct o_ns_per_record;
  let o_floor_ok = floor_ok "obs: armed recorder" "wheel" o_armed_eps in
  verdict ~ok:"armed flight recorder holds the baseline events/sec floor"
    [
      (o_identical, "recorder arming changed the retired event stream");
      (o_floor_ok, "recorder-armed events/sec fell below the baseline floor");
    ];
  (* The flight recorder on the realistic sweep, where every scheduler
     round and dataplane cycle writes ring records: results bit-identical
     to the recorder-off sweep, and the quietest pair within the <=5%
     budget (gated at 10% for shared-runner noise). *)
  let walls, o_off, o_on =
    paired_leg ~base:(point ~telemetry:true) ~armed:(fun r ->
        point ~telemetry:true ~flight:(Flight.create ()) r)
  in
  let o_base, o_arm =
    List.fold_left (fun (b, a) (b', a') -> if a' /. b' < a /. b then (b', a') else (b, a))
      (List.hd walls) (List.tl walls)
  in
  let o_sweep_eq = same_results o_off o_on in
  let o_wall_pct = pct_over ~base:o_base o_arm in
  Printf.printf
    "[obs: recorder-off sweep %.2fs / armed %.2fs (best pair of %d over %d points) -> %+.1f%% \
     wall overhead (budget 5%%, gate 10%%)]\n"
    o_base o_arm reps (List.length rates) o_wall_pct;
  verdict ~ok:"flight-armed sweep == recorder-off sweep, within budget"
    [
      (o_sweep_eq, "the flight recorder perturbed the simulated results");
      (o_arm <= 1.10 *. o_base, "flight-recorder sweep overhead exceeds the 10% gate");
    ];
  (* Dump determinism: the forensic debrief digests identically across a
     same-seed rerun. *)
  let o_dump_digest = flight_debrief_digest () in
  let dump_rerun = flight_debrief_digest () in
  let o_dump_eq = String.equal o_dump_digest dump_rerun in
  Printf.printf "[obs: debrief digest %s (rerun %s)]\n" o_dump_digest dump_rerun;
  verdict ~ok:"forensic dump digests identical across reruns"
    [ (o_dump_eq, "forensic dump is nondeterministic") ];
  field "obs"
    (Te.Obj
       [
         ("inert_recorder_events_per_sec", Te.Num o_inert_eps);
         ("armed_recorder_events_per_sec", Te.Num o_armed_eps);
         ("churn_overhead_pct", Te.Num o_churn_pct);
         ("ns_per_record", Te.Num o_ns_per_record);
         ("streams_identical", Te.Bool o_identical);
         ("sweep_wall_s", Te.Num (List.fold_left (fun s (_, a) -> s +. a) 0.0 walls));
         ("sweep_overhead_pct", Te.Num o_wall_pct);
         ("results_identical", Te.Bool o_sweep_eq);
         ("dump_digest", Te.Str o_dump_digest);
         ("dump_digest_identical", Te.Bool o_dump_eq);
       ]);
  verdict ~ok:"events/sec within 20% of baseline"
    [ (floor_ok "speed" "wheel" w_eps, "events/sec regressed >20% vs BENCH_BASELINE.json") ];
  (* The po2c rack world, inert then tracer-armed, in back-to-back pairs.
     The balancer floor takes the best inert run; the tracer's budget is
     judged on the best armed/inert pair. *)
  let ro_pairs =
    pairs reps ~base:(rack_traced_run ~armed:false) ~armed:(rack_traced_run ~armed:true)
  in
  let rack_n, rack_eps =
    List.fold_left
      (fun (n, e) ((n', e', _), _) -> if e' > e then (n', e') else (n, e))
      (0, neg_infinity) ro_pairs
  in
  let rack_migrations = rack_migration_run () in
  Printf.printf "[rack: %d balanced requests, %.0f requests/s, %d migrations applied]\n" rack_n
    rack_eps rack_migrations;
  let rack_floor_ok = floor_ok "speed rack" "rack" rack_eps in
  verdict ~ok:"rack balancer holds its floor and migration stays live"
    [
      (rack_floor_ok, "rack balanced-requests/sec fell below the baseline floor");
      (rack_migrations > 0, "skew-driven migration applied no migrations");
    ];
  field "rack"
    (Te.Obj
       [
         ("balanced_requests", Te.Int rack_n);
         ("rack_events_per_sec", Te.Num rack_eps);
         ("migrations", Te.Int rack_migrations);
       ]);
  let ratio ((_, i, _), (_, a, _)) = if i > 0.0 then a /. i else 0.0 in
  let ((ro_inert_n, ro_inert_eps, _), (ro_armed_n, ro_armed_eps, ro_obs)) =
    List.fold_left
      (fun best p -> if ratio p > ratio best then p else best)
      (List.hd ro_pairs) (List.tl ro_pairs)
  in
  let ro_obs = Option.get ro_obs in
  let ro_tiling_ok = Rack_obs.tiling_ok ro_obs && Rack_obs.slot_overflow ro_obs = 0 in
  let ro_overhead_pct = -.pct_over ~base:ro_inert_eps ro_armed_eps in
  Printf.printf
    "[rack_obs: inert %.0f req/s, traced %.0f req/s -> %+.1f%% overhead (budget 5%%, gate \
     10%%), %d traced]\n"
    ro_inert_eps ro_armed_eps ro_overhead_pct (Rack_obs.traced ro_obs);
  let ro_best_armed_eps =
    List.fold_left (fun acc (_, (_, a, _)) -> Float.max acc a) 0.0 ro_pairs
  in
  let ro_floor_ok = floor_ok "speed rack_obs" "rack_obs" ro_best_armed_eps in
  let ro_stream_ok =
    ro_inert_n = ro_armed_n && List.for_all (fun ((i, _, _), (a, _, _)) -> i = a) ro_pairs
  in
  verdict ~ok:"armed rack tracer holds its floor, budget and tiling invariant"
    [
      (ro_stream_ok, "arming the rack tracer changed the dispatch stream");
      (ro_tiling_ok, "rack tracer hop deltas do not tile e2e latency");
      (ro_armed_eps >= 0.90 *. ro_inert_eps, "armed rack tracer exceeds the 10% events/sec gate");
      (ro_floor_ok, "traced rack dispatch fell below the baseline floor");
    ];
  field "rack_obs"
    (Te.Obj
       [
         ("inert_events_per_sec", Te.Num ro_inert_eps);
         ("rack_obs_events_per_sec", Te.Num ro_armed_eps);
         ("overhead_pct", Te.Num ro_overhead_pct);
         ("traced_requests", Te.Int (Rack_obs.traced ro_obs));
         ("tiling_exact", Te.Bool ro_tiling_ok);
       ]);
  (* Static analysis: the live tree lints clean and serial and --jobs 2
     reports are byte-identical. *)
  let lint, lint_wall_s, lint_jobs_eq = run_lint () in
  Printf.printf "[lint: %d file(s), %d rule(s), %d finding(s), %d waiver(s), %.3f s]\n"
    lint.Lint_driver.files_scanned
    (List.length lint.Lint_driver.rules)
    (List.length lint.Lint_driver.findings)
    lint.Lint_driver.waivers_used lint_wall_s;
  let callgraph =
    match lint.Lint_driver.gstats with
    | Some g ->
      Printf.printf
        "[lint callgraph: %d node(s), %d edge(s), hot %d+%d, taint %d source(s) -> %d, %d \
         sink(s)]\n"
        g.Lint_interproc.gs_nodes g.Lint_interproc.gs_edges g.Lint_interproc.gs_hot_seeds
        g.Lint_interproc.gs_hot_inferred g.Lint_interproc.gs_taint_sources
        g.Lint_interproc.gs_taint_tainted g.Lint_interproc.gs_identity_sinks;
      [
        ( "callgraph",
          Te.Obj
            [
              ("nodes", Te.Int g.Lint_interproc.gs_nodes);
              ("edges", Te.Int g.Lint_interproc.gs_edges);
              ("hot_seeds", Te.Int g.Lint_interproc.gs_hot_seeds);
              ("hot_inferred", Te.Int g.Lint_interproc.gs_hot_inferred);
              ("taint_sources", Te.Int g.Lint_interproc.gs_taint_sources);
              ("taint_tainted", Te.Int g.Lint_interproc.gs_taint_tainted);
              ("identity_sinks", Te.Int g.Lint_interproc.gs_identity_sinks);
            ] );
      ]
    | None -> []
  in
  verdict ~ok:"reflex-lint reports zero findings"
    [ (Lint_driver.clean lint, "reflex-lint found violations") ];
  if not (Lint_driver.clean lint) then print_string (Lint_driver.to_text lint);
  verdict ~ok:"lint report is byte-identical serial vs --jobs 2"
    [ (lint_jobs_eq, "lint report differs between serial and --jobs 2") ];
  field "lint"
    (Te.Obj
       ([
          ("files_scanned", Te.Int lint.Lint_driver.files_scanned);
          ("rule_count", Te.Int (List.length lint.Lint_driver.rules));
          ("waivers_used", Te.Int lint.Lint_driver.waivers_used);
          ("wall_s", Te.Num lint_wall_s);
          ("jobs2_identical", Te.Bool lint_jobs_eq);
        ]
       @ callgraph
       @ [ ("finding_count", Te.Int (List.length lint.Lint_driver.findings)) ]));
  field "points"
    (Te.Arr
       (List.map
          (fun (rate, kiops, p95, _) ->
            Te.Obj
              [
                ("offered_kiops", Te.Num (rate /. 1e3));
                ("achieved_kiops", Te.Num kiops);
                ("p95_us", Te.Num p95);
              ])
          rows));
  Option.iter
    (fun path ->
      let buf = Buffer.create 4096 in
      Te.add_value buf (Te.Obj (List.rev !fields));
      Buffer.add_char buf '\n';
      Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "[wrote %s]\n%!" path)
    json_path;
  if !failed then exit 1
