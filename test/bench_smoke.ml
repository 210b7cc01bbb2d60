(* Smoke test for the benchmark harness plumbing: drives a tiny sweep
   through the parallel experiment runner (as `bench/main.exe --jobs N`
   does for the real figures) and checks the fan-out/merge produces the
   same table as a serial run.  Also times the same sweep with telemetry
   enabled vs disabled: the simulated results must be bit-identical
   (telemetry observes, never perturbs) and the wall-clock overhead is
   reported so instrumentation-cost regressions surface in CI.

   Wired into `dune runtest` via the `bench-smoke` alias; pass
   `--json PATH` (as `make check` does) to also record the numbers in a
   machine-readable file tracked alongside BENCH_*.json. *)

open Reflex_engine
open Reflex_client
open Reflex_experiments
open Reflex_telemetry

(* Root seed for every world this smoke builds, recorded in the JSON
   metadata so a archived result names the exact simulation it ran. *)
let world_seed = 0x5EED_0BEAC4L

let point ?(telemetry = false) ?(faults = false) ?(monitor = false) ?(flight = false) rate =
  let telemetry = if telemetry then Telemetry.create () else Telemetry.disabled in
  (* The flight leg arms the always-on recorder BEFORE the world is built
     (components cache the handle at create time): scheduler rounds and
     dataplane cycles then write ring records on every hop, and the
     simulated results must still be bit-identical. *)
  if flight then Telemetry.set_flight telemetry (Reflex_obs.Flight.create ());
  let w = Common.make_reflex ~telemetry ~seed:world_seed () in
  let sim = w.Common.sim in
  (* The faults leg arms an injector with an EMPTY plan: the contract is
     that merely having the subsystem present costs nothing — results
     must be bit-identical and the wall clock within noise. *)
  if faults then
    ignore
      (Reflex_faults.Injector.arm
         (Reflex_faults.Injector.target ~sim ~fabric:w.Common.fabric ~server:w.Common.server ())
         ~plan:[]);
  (* The monitor leg arms the full alerting pipeline (TSDB daemon tick,
     budgets, burn/knee/anomaly rules) as a pure observer: no bindings,
     so it may watch but never mutate, and results must be
     bit-identical to the unmonitored run. *)
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
  (rate, Load_gen.achieved_iops gen /. 1e3, Load_gen.p95_read_us gen)

let table rows =
  let t =
    Reflex_stats.Table.create ~title:"bench smoke: tiny open-loop sweep"
      ~columns:[ "offered KIOPS"; "achieved KIOPS"; "p95 (us)" ]
  in
  List.iter
    (fun (rate, kiops, p95) ->
      Reflex_stats.Table.add_row t
        [
          Reflex_stats.Table.cell_f (rate /. 1e3);
          Reflex_stats.Table.cell_f ~decimals:6 kiops;
          Reflex_stats.Table.cell_f ~decimals:6 p95;
        ])
    rows;
  Reflex_stats.Table.render t

(* Wall time of [f] repeated [reps] times, keeping the last result. *)
let timed reps f =
  let t0 = Unix.gettimeofday () in
  let r = ref (f ()) in
  for _ = 2 to reps do
    r := f ()
  done;
  (Unix.gettimeofday () -. t0, !r)

(* The static-analysis gate rides along with the smoke: reflex-lint is
   re-run in-process over the live tree so BENCH_SMOKE.json records the
   rule/waiver/finding counts next to the perf numbers, and CI fails if
   any finding slipped past `make lint`.  The repo root is found by
   walking up to lint.manifest, which works both from the repo root
   (`make check`) and from _build/default/test (the runtest alias, whose
   rule depends on the source tree). *)
let rec find_lint_root dir =
  if Sys.file_exists (Filename.concat dir "lint.manifest") then dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith "lint.manifest not found above cwd"
    else find_lint_root parent

(* Runs the full pass twice — serial (timed) and with --jobs 2 — and
   byte-compares the rendered reports: the linter's own determinism
   contract (reports are byte-identical for any --jobs) is part of the
   smoke gate. *)
let run_lint () =
  let root = find_lint_root (Sys.getcwd ()) in
  let manifest_path = Filename.concat root "lint.manifest" in
  let t0 = Unix.gettimeofday () in
  let r = Lint_driver.run ~root ~manifest_path () in
  let wall = Unix.gettimeofday () -. t0 in
  let r2 = Lint_driver.run ~jobs:2 ~root ~manifest_path () in
  let jobs_eq =
    Lint_driver.to_text r = Lint_driver.to_text r2
    && Lint_driver.to_json r = Lint_driver.to_json r2
  in
  (r, wall, jobs_eq)

(* ---------------- Event-core speed gate ---------------- *)

(* The same event-churn workload as `bench/main.exe --only speed`, sized
   down: self-rescheduling chains with prng strides and a cancelled
   decoy every fourth hop.  Events/sec is gated against the checked-in
   BENCH_BASELINE.json floor. *)
let speed_run () =
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
  let t0 = Unix.gettimeofday () in
  let n = Sim.run sim in
  let wall = Unix.gettimeofday () -. t0 in
  let mw = Gc.minor_words () -. mw0 in
  let eps = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  let mwpe = if n > 0 then mw /. float_of_int n else 0.0 in
  (n, eps, mwpe)

(* ---------------- Flight-recorder cost and dump determinism ---------------- *)

module Flight = Reflex_obs.Flight
module Flight_dump = Reflex_obs.Flight_dump

(* The same event-churn chains as [speed_run], with one flight record
   written per hop.  Run once against an armed recorder and once against a
   real-but-inert one ([enabled:false]): both take the identical code path
   up to the recorder's single immutable bool, so the events/sec delta is
   the marginal cost of actually writing records. *)
let obs_speed_run recorder =
  let chains = 64 and hops = 1000 in
  let sim = Sim.create () in
  for c = 0 to chains - 1 do
    let prng = Prng.create (Int64.of_int ((c * 7919) + 17)) in
    let remaining = ref hops in
    let rec hop () =
      if !remaining > 0 then begin
        decr remaining;
        Flight.record recorder ~now:(Sim.now sim) ~kind:Flight.Kind.Queue_depth ~a:c
          ~b:!remaining ~v:0.0;
        let stride = 1 + Prng.int prng 65536 in
        ignore (Sim.after sim (Time.ns stride) hop)
      end
    in
    ignore (Sim.at sim (Time.ns (c + 1)) hop)
  done;
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let n = Sim.run sim in
  let wall = Unix.gettimeofday () -. t0 in
  (n, Sim.now sim, if wall > 0.0 then float_of_int n /. wall else 0.0)

(* Best-of-[reps] events/sec (max damps scheduler noise on shared CI). *)
let obs_best reps recorder =
  let n = ref 0 and now = ref Time.zero and eps = ref 0.0 in
  for _ = 1 to reps do
    let n', now', eps' = obs_speed_run recorder in
    n := n';
    now := now';
    if eps' > !eps then eps := eps'
  done;
  (!n, !now, !eps)

(* One full alert-capable world with the recorder armed, run to completion;
   the digest of the rendered forensic debrief must be identical across
   same-seed reruns. *)
let flight_debrief_digest () =
  let telemetry = Telemetry.create () in
  let fl = Flight.create () in
  Telemetry.set_flight telemetry fl;
  let w = Common.make_reflex ~telemetry ~seed:world_seed () in
  let sim = w.Common.sim in
  let m = Reflex_monitor.Monitor.create ~server:w.Common.server ~telemetry () in
  Reflex_monitor.Monitor.start m sim ();
  let client = Common.client_of w ~tenant:1 () in
  let until = Time.add (Sim.now sim) (Time.ms 60) in
  let gen =
    Load_gen.open_loop sim ~client ~rate:120e3 ~read_ratio:1.0 ~bytes:4096 ~until ~seed:3L ()
  in
  Common.measure_generators sim [ gen ] ~warmup:(Time.ms 10) ~window:(Time.ms 40);
  let snap = Flight.snapshot fl ~now:(Sim.now sim) ~window:(Time.ms 5) in
  Digest.to_hex (Digest.string (Flight_dump.debrief snap))

(* ---------------- Rack balancer gate ---------------- *)

(* The same small rack world as `bench/main.exe --only rack` (po2c leg):
   8 servers, 64 LC tenants with 3-way replica sets, probe ticks every
   250us, one CBR read stream per tenant.  Returns balanced requests and
   wall requests/sec; the skew-driven migration micro rides along so the
   smoke asserts online migration stays live.  Gated against the "rack"
   floor in BENCH_BASELINE.json (an "event" here is one request through
   the balancer's pick + ingress-charge + dispatch path). *)
let rack_run () =
  let open Reflex_rack in
  let n_servers = 8 and n_tenants = 64 in
  let sim = Sim.create ~seed:7L () in
  let rack = Rack.create sim ~n_servers ~policy:Policy.Po2c ~seed:0xBE11L () in
  let slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100 in
  for id = 1 to n_tenants do
    ignore (Rack.add_tenant rack ~id ~slo ~replicas:3)
  done;
  let t0 = Sim.now sim in
  let t_end = Time.add t0 (Time.ms 10) in
  Sim.every sim ~every:(Time.us 250) ~until:t_end (fun _ -> Rack.sample_probes rack);
  for id = 1 to n_tenants do
    let prng = Prng.create (Int64.of_int ((id * 7919) + 3)) in
    let phase = Time.of_float_us (Prng.float prng *. 500.0) in
    ignore
      (Sim.at sim (Time.add t0 phase) (fun () ->
           Sim.every sim ~every:(Time.of_float_us 500.0) ~until:t_end (fun _ ->
               Rack.dispatch_read rack ~tenant:id
                 ~lba:(Int64.of_int (Prng.int prng 65536 * 8))
                 ~len:1024 ())))
  done;
  let w0 = Unix.gettimeofday () in
  ignore (Sim.run sim);
  let wall = Unix.gettimeofday () -. w0 in
  let n = Rack.lc_dispatched rack in
  let eps = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  (n, eps)

let rack_migration_run () =
  let open Reflex_rack in
  let sim = Sim.create ~seed:9L () in
  let rack = Rack.create sim ~n_servers:8 ~policy:Policy.Po2c ~seed:0x3160L () in
  let slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100 in
  for id = 1 to 24 do
    ignore (Rack.add_tenant_on rack ~id ~slo ~server:0)
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
  for id = 1 to 24 do
    let prng = Prng.create (Int64.of_int ((id * 104729) + 11)) in
    let phase = Time.of_float_us (Prng.float prng *. 500.0) in
    ignore
      (Sim.at sim (Time.add t0 phase) (fun () ->
           Sim.every sim ~every:(Time.of_float_us 500.0) ~until:t_end (fun _ ->
               Rack.dispatch_read rack ~tenant:id
                 ~lba:(Int64.of_int (Prng.int prng 65536 * 8))
                 ~len:1024 ())))
  done;
  ignore (Sim.run sim);
  Rack.migrations rack

(* ---------------- Rack tracing gate ---------------- *)

(* The rack_run world with the distributed tracer optionally armed
   end-to-end (per-request trace slots, five hop stamps into per-server
   flight rings, per-hop attribution histograms).  The armed run must
   clear the "rack_obs" BENCH_BASELINE.json floor AND stay within the
   always-on tracing budget vs the inert run (<=5%, gated at 10% for
   shared-runner noise), and every traced request must tile exactly. *)
let rack_traced_run ~armed () =
  let open Reflex_rack in
  let n_servers = 8 and n_tenants = 64 in
  let sim = Sim.create ~seed:7L () in
  let rack = Rack.create sim ~n_servers ~policy:Policy.Po2c ~seed:0xBE11L () in
  let obs = if armed then Some (Reflex_rack_obs.Rack_obs.create rack) else None in
  let slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100 in
  for id = 1 to n_tenants do
    ignore (Rack.add_tenant rack ~id ~slo ~replicas:3)
  done;
  let t0 = Sim.now sim in
  let t_end = Time.add t0 (Time.ms 10) in
  Sim.every sim ~every:(Time.us 250) ~until:t_end (fun _ -> Rack.sample_probes rack);
  for id = 1 to n_tenants do
    let prng = Prng.create (Int64.of_int ((id * 7919) + 3)) in
    let phase = Time.of_float_us (Prng.float prng *. 500.0) in
    ignore
      (Sim.at sim (Time.add t0 phase) (fun () ->
           Sim.every sim ~every:(Time.of_float_us 500.0) ~until:t_end (fun _ ->
               Rack.dispatch_read rack ~tenant:id
                 ~lba:(Int64.of_int (Prng.int prng 65536 * 8))
                 ~len:1024 ())))
  done;
  let w0 = Unix.gettimeofday () in
  ignore (Sim.run sim);
  let wall = Unix.gettimeofday () -. w0 in
  let n = Rack.lc_dispatched rack in
  let eps = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  (n, eps, obs)

(* Paired reps: each rep runs inert then armed back-to-back so that
   machine-load swings hit both sides of the ratio equally, and the
   budget is judged on the best (quietest) pair rather than on bests
   drawn from different load regimes. *)
let rack_traced_pairs reps =
  let pairs = ref [] in
  for _ = 1 to reps do
    let inert_n, inert_eps, _ = rack_traced_run ~armed:false () in
    let armed_n, armed_eps, obs = rack_traced_run ~armed:true () in
    pairs := (inert_n, inert_eps, armed_n, armed_eps, obs) :: !pairs
  done;
  List.rev !pairs

(* ns per hop record: the exact flight-ring write each trace stamp
   performs, measured in bulk on a quiesced recorder. *)
let ns_per_hop_record obs =
  let n = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  Reflex_rack_obs.Rack_obs.bench_hop_records obs n;
  (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9

(* Pull "<name>_events_per_sec": <float> out of BENCH_BASELINE.json with
   a plain substring scan — the file is ours, flat, and checked in, so a
   JSON parser dependency would be overkill. *)
let baseline_events_per_sec root name =
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

let write_json path ~rows ~parallel_eq ~wall_parallel ~off_s ~on_s ~overhead_pct
    ~iops_delta_pct ~f_off_s ~f_on_s ~f_overhead_pct ~f_identical ~m_off_s ~m_on_s
    ~m_overhead_pct ~m_identical ~s_events ~w_eps ~w_mwpe ~o_inert_eps ~o_armed_eps ~o_churn_pct ~o_ns_per_record ~o_identical
    ~o_on_s ~o_wall_pct ~o_sweep_eq ~o_dump_digest ~o_dump_eq ~rack_n ~rack_eps
    ~rack_migrations ~ro_inert_eps ~ro_armed_eps ~ro_overhead_pct ~ro_ns ~ro_traced
    ~ro_tiling_ok ~(lint : Lint_driver.report) ~lint_wall_s ~lint_jobs_eq =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" world_seed;
  Printf.fprintf oc "  \"git_sha\": \"%s\",\n" (Common.git_sha ());
  Printf.fprintf oc "  \"parallel_eq_serial\": %b,\n" parallel_eq;
  Printf.fprintf oc "  \"wall_s_parallel\": %.3f,\n" wall_parallel;
  Printf.fprintf oc "  \"telemetry\": {\n";
  Printf.fprintf oc "    \"off_wall_s\": %.3f,\n" off_s;
  Printf.fprintf oc "    \"on_wall_s\": %.3f,\n" on_s;
  Printf.fprintf oc "    \"overhead_pct\": %.2f,\n" overhead_pct;
  Printf.fprintf oc "    \"iops_delta_pct\": %.6f\n" iops_delta_pct;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"faults_disabled\": {\n";
  Printf.fprintf oc "    \"off_wall_s\": %.3f,\n" f_off_s;
  Printf.fprintf oc "    \"on_wall_s\": %.3f,\n" f_on_s;
  Printf.fprintf oc "    \"overhead_pct\": %.2f,\n" f_overhead_pct;
  Printf.fprintf oc "    \"results_identical\": %b\n" f_identical;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"monitor\": {\n";
  Printf.fprintf oc "    \"off_wall_s\": %.3f,\n" m_off_s;
  Printf.fprintf oc "    \"on_wall_s\": %.3f,\n" m_on_s;
  Printf.fprintf oc "    \"overhead_pct\": %.2f,\n" m_overhead_pct;
  Printf.fprintf oc "    \"results_identical\": %b\n" m_identical;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"speed\": {\n";
  Printf.fprintf oc "    \"events\": %d,\n" s_events;
  Printf.fprintf oc "    \"wheel_events_per_sec\": %.0f,\n" w_eps;
  Printf.fprintf oc "    \"wheel_minor_words_per_event\": %.3f\n" w_mwpe;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"obs\": {\n";
  Printf.fprintf oc "    \"inert_recorder_events_per_sec\": %.0f,\n" o_inert_eps;
  Printf.fprintf oc "    \"armed_recorder_events_per_sec\": %.0f,\n" o_armed_eps;
  Printf.fprintf oc "    \"churn_overhead_pct\": %.2f,\n" o_churn_pct;
  Printf.fprintf oc "    \"ns_per_record\": %.1f,\n" o_ns_per_record;
  Printf.fprintf oc "    \"streams_identical\": %b,\n" o_identical;
  Printf.fprintf oc "    \"sweep_wall_s\": %.3f,\n" o_on_s;
  Printf.fprintf oc "    \"sweep_overhead_pct\": %.2f,\n" o_wall_pct;
  Printf.fprintf oc "    \"results_identical\": %b,\n" o_sweep_eq;
  Printf.fprintf oc "    \"dump_digest\": \"%s\",\n" o_dump_digest;
  Printf.fprintf oc "    \"dump_digest_identical\": %b\n" o_dump_eq;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"rack\": {\n";
  Printf.fprintf oc "    \"balanced_requests\": %d,\n" rack_n;
  Printf.fprintf oc "    \"rack_events_per_sec\": %.0f,\n" rack_eps;
  Printf.fprintf oc "    \"migrations\": %d\n" rack_migrations;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"rack_obs\": {\n";
  Printf.fprintf oc "    \"inert_events_per_sec\": %.0f,\n" ro_inert_eps;
  Printf.fprintf oc "    \"rack_obs_events_per_sec\": %.0f,\n" ro_armed_eps;
  Printf.fprintf oc "    \"overhead_pct\": %.2f,\n" ro_overhead_pct;
  Printf.fprintf oc "    \"ns_per_hop_record\": %.1f,\n" ro_ns;
  Printf.fprintf oc "    \"traced_requests\": %d,\n" ro_traced;
  Printf.fprintf oc "    \"tiling_exact\": %b\n" ro_tiling_ok;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"lint\": {\n";
  Printf.fprintf oc "    \"files_scanned\": %d,\n" lint.Lint_driver.files_scanned;
  Printf.fprintf oc "    \"rule_count\": %d,\n" (List.length lint.Lint_driver.rules);
  Printf.fprintf oc "    \"waivers_used\": %d,\n" lint.Lint_driver.waivers_used;
  Printf.fprintf oc "    \"wall_s\": %.3f,\n" lint_wall_s;
  Printf.fprintf oc "    \"jobs2_identical\": %b,\n" lint_jobs_eq;
  (match lint.Lint_driver.gstats with
  | Some g ->
    Printf.fprintf oc "    \"callgraph\": {\n";
    Printf.fprintf oc "      \"nodes\": %d,\n" g.Lint_interproc.gs_nodes;
    Printf.fprintf oc "      \"edges\": %d,\n" g.Lint_interproc.gs_edges;
    Printf.fprintf oc "      \"hot_seeds\": %d,\n" g.Lint_interproc.gs_hot_seeds;
    Printf.fprintf oc "      \"hot_inferred\": %d,\n" g.Lint_interproc.gs_hot_inferred;
    Printf.fprintf oc "      \"taint_sources\": %d,\n" g.Lint_interproc.gs_taint_sources;
    Printf.fprintf oc "      \"taint_tainted\": %d,\n" g.Lint_interproc.gs_taint_tainted;
    Printf.fprintf oc "      \"identity_sinks\": %d\n" g.Lint_interproc.gs_identity_sinks;
    Printf.fprintf oc "    },\n"
  | None -> ());
  Printf.fprintf oc "    \"finding_count\": %d\n" (List.length lint.Lint_driver.findings);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"points\": [\n";
  List.iteri
    (fun i (rate, kiops, p95) ->
      Printf.fprintf oc
        "    {\"offered_kiops\": %.1f, \"achieved_kiops\": %.6f, \"p95_us\": %.6f}%s\n"
        (rate /. 1e3) kiops p95
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n%!" path

let () =
  let json_path =
    match Array.to_list Sys.argv with
    | _ :: "--json" :: p :: _ -> Some p
    | _ -> None
  in
  let rates = [ 40e3; 80e3; 120e3; 160e3 ] in
  let t0 = Unix.gettimeofday () in
  let rows = Runner.map ~jobs:2 point rates in
  let parallel = table rows in
  let wall_parallel = Unix.gettimeofday () -. t0 in
  let serial = table (Runner.map ~jobs:1 point rates) in
  print_string parallel;
  Printf.printf "[bench smoke: %d points through the parallel runner in %.1fs]\n"
    (List.length rates) wall_parallel;
  let parallel_eq = String.equal parallel serial in
  if parallel_eq then print_endline "bench smoke OK: parallel == serial"
  else begin
    print_endline "bench smoke FAILED: parallel and serial tables differ";
    print_string serial
  end;
  (* Telemetry cost: same serial sweep with the observability layer off
     vs on.  The simulated numbers must match exactly — the span ring,
     counters and daemon sampler observe the simulation but never
     schedule work that perturbs it. *)
  let reps = 3 in
  let off_s, off_rows = timed reps (fun () -> List.map (point ~telemetry:false) rates) in
  let on_s, on_rows = timed reps (fun () -> List.map (point ~telemetry:true) rates) in
  let sim_identical =
    List.for_all2
      (fun (_, k0, p0) (_, k1, p1) -> Float.equal k0 k1 && Float.equal p0 p1)
      off_rows on_rows
  in
  let iops_delta_pct =
    List.fold_left2
      (fun acc (_, k0, _) (_, k1, _) ->
        Float.max acc (if k0 = 0.0 then 0.0 else Float.abs (k1 -. k0) /. k0 *. 100.0))
      0.0 off_rows on_rows
  in
  let overhead_pct = if off_s > 0.0 then (on_s -. off_s) /. off_s *. 100.0 else 0.0 in
  Printf.printf
    "[telemetry: off %.2fs / on %.2fs over %dx%d points -> %+.1f%% wall overhead, \
     %.4f%% sim IOPS delta]\n"
    off_s on_s reps (List.length rates) overhead_pct iops_delta_pct;
  if sim_identical then print_endline "bench smoke OK: telemetry-on results == telemetry-off"
  else print_endline "bench smoke FAILED: telemetry perturbed the simulated results";
  (* Fault subsystem cost when disarmed: the same sweep with an injector
     holding an empty plan.  Results must be bit-identical (the hot paths
     pay one boolean test per fault class) and the wall overhead ~zero. *)
  let f_off_s, f_off_rows = timed reps (fun () -> List.map (point ~faults:false) rates) in
  let f_on_s, f_on_rows = timed reps (fun () -> List.map (point ~faults:true) rates) in
  let f_identical =
    List.for_all2
      (fun (_, k0, p0) (_, k1, p1) -> Float.equal k0 k1 && Float.equal p0 p1)
      f_off_rows f_on_rows
  in
  let f_overhead_pct = if f_off_s > 0.0 then (f_on_s -. f_off_s) /. f_off_s *. 100.0 else 0.0 in
  Printf.printf
    "[faults: no-injector %.2fs / empty-plan %.2fs over %dx%d points -> %+.1f%% wall overhead]\n"
    f_off_s f_on_s reps (List.length rates) f_overhead_pct;
  if f_identical then print_endline "bench smoke OK: empty-plan injector results == no injector"
  else print_endline "bench smoke FAILED: disarmed fault subsystem perturbed the results";
  (* Monitor cost when armed as a pure observer: telemetry-on sweep with
     and without the full alerting pipeline (TSDB windows, budgets, burn
     rules) ticking on a daemon event.  No remediation bindings, so the
     simulated numbers must be bit-identical. *)
  let m_off_s, m_off_rows =
    timed reps (fun () -> List.map (point ~telemetry:true ~monitor:false) rates)
  in
  let m_on_s, m_on_rows =
    timed reps (fun () -> List.map (point ~telemetry:true ~monitor:true) rates)
  in
  let m_identical =
    List.for_all2
      (fun (_, k0, p0) (_, k1, p1) -> Float.equal k0 k1 && Float.equal p0 p1)
      m_off_rows m_on_rows
  in
  let m_overhead_pct = if m_off_s > 0.0 then (m_on_s -. m_off_s) /. m_off_s *. 100.0 else 0.0 in
  Printf.printf
    "[monitor: unarmed %.2fs / armed %.2fs over %dx%d points -> %+.1f%% wall overhead]\n"
    m_off_s m_on_s reps (List.length rates) m_overhead_pct;
  if m_identical then print_endline "bench smoke OK: armed monitor results == no monitor"
  else print_endline "bench smoke FAILED: the monitor perturbed the simulated results";
  (* Event-core speed: events/sec is gated against the baseline floor
     below, next to the rack floors. *)
  let s_events, w_eps, w_mwpe = speed_run () in
  Printf.printf "[speed: %.0f events/s (%.2f mw/ev), %d events]\n" w_eps w_mwpe s_events;
  let root = find_lint_root (Sys.getcwd ()) in
  (* Flight-recorder cost, leg 1 — bare event churn: the speed_run chains
     with one ring record per hop, armed vs inert recorder.  An event here
     does almost nothing, so this is the worst case; the per-record
     nanoseconds are reported, and the gate is that the armed run still
     clears the same BENCH_BASELINE.json wheel floor as the bare event
     loop (the recorder may not cost events/sec vs the baseline). *)
  let o_reps = 3 in
  let o_in, o_inow, o_inert_eps = obs_best o_reps (Flight.create ~enabled:false ()) in
  let o_an, o_anow, o_armed_eps = obs_best o_reps (Flight.create ()) in
  let o_identical = o_in = o_an && o_inow = o_anow in
  let o_churn_pct =
    if o_inert_eps > 0.0 then (o_inert_eps -. o_armed_eps) /. o_inert_eps *. 100.0 else 0.0
  in
  let o_ns_per_record =
    if o_armed_eps > 0.0 && o_inert_eps > 0.0 then (1e9 /. o_armed_eps) -. (1e9 /. o_inert_eps)
    else 0.0
  in
  Printf.printf
    "[obs: inert recorder %.0f events/s, armed %.0f events/s -> %+.1f%% on bare churn, \
     %.0f ns/record]\n"
    o_inert_eps o_armed_eps o_churn_pct o_ns_per_record;
  let o_floor_ok =
    match baseline_events_per_sec root "wheel" with
    | Some b when b > 0.0 ->
      let ratio = o_armed_eps /. b in
      Printf.printf "[obs: armed recorder %.2fx the wheel BENCH_BASELINE.json floor]\n" ratio;
      ratio >= 0.8
    | _ ->
      print_endline "[obs: no wheel baseline floor found, recorder gate skipped]";
      true
  in
  if o_identical && o_floor_ok then
    print_endline "bench smoke OK: armed flight recorder holds the baseline events/sec floor"
  else if not o_identical then
    print_endline "bench smoke FAILED: recorder arming changed the retired event stream"
  else print_endline "bench smoke FAILED: recorder-armed events/sec fell below the baseline floor";
  (* Flight-recorder cost, leg 2 — the realistic sweep: every scheduler
     round and dataplane cycle writes ring records.  Results must stay
     bit-identical to the recorder-off telemetry sweep above, and the wall
     overhead inside the <=5% budget (the gate allows 5 more points of
     shared-runner noise). *)
  (* Each rep re-times a fresh recorder-off sweep right before its armed
     sweep so machine-load swings hit both sides of the ratio; the gate
     judges the quietest pair (the telemetry-on sweep measured earlier in
     the smoke is minutes of wall time away by now). *)
  let o_base_best = ref infinity
  and o_arm_best = ref infinity
  and o_ratio = ref infinity
  and o_on_s = ref 0.0
  and o_rows = ref on_rows in
  for _ = 1 to reps do
    let b, _ = timed 1 (fun () -> List.map (point ~telemetry:true) rates) in
    let a, rows = timed 1 (fun () -> List.map (point ~telemetry:true ~flight:true) rates) in
    o_rows := rows;
    o_on_s := !o_on_s +. a;
    if b > 0.0 && a /. b < !o_ratio then begin
      o_ratio := a /. b;
      o_base_best := b;
      o_arm_best := a
    end
  done;
  let o_on_s = !o_on_s and o_rows = !o_rows in
  let o_sweep_eq =
    List.for_all2
      (fun (_, k0, p0) (_, k1, p1) -> Float.equal k0 k1 && Float.equal p0 p1)
      on_rows o_rows
  in
  let o_wall_pct =
    if !o_base_best > 0.0 then (!o_arm_best -. !o_base_best) /. !o_base_best *. 100.0
    else 0.0
  in
  let o_wall_ok = !o_arm_best <= 1.10 *. !o_base_best in
  Printf.printf
    "[obs: recorder-off sweep %.2fs / armed %.2fs (best pair of %d over %d points) -> \
     %+.1f%% wall overhead (budget 5%%, gate 10%%)]\n"
    !o_base_best !o_arm_best reps (List.length rates) o_wall_pct;
  if o_sweep_eq && o_wall_ok then
    print_endline "bench smoke OK: flight-armed sweep == recorder-off sweep, within budget"
  else if not o_sweep_eq then
    print_endline "bench smoke FAILED: the flight recorder perturbed the simulated results"
  else print_endline "bench smoke FAILED: flight-recorder sweep overhead exceeds the 10% gate";
  (* Dump determinism: the forensic debrief of a monitored run must digest
     identically across a same-seed rerun. *)
  let o_dump_digest = flight_debrief_digest () in
  let dump_rerun = flight_debrief_digest () in
  let o_dump_eq = String.equal o_dump_digest dump_rerun in
  Printf.printf "[obs: debrief digest %s (rerun %s)]\n" o_dump_digest dump_rerun;
  if o_dump_eq then
    print_endline "bench smoke OK: forensic dump digests identical across reruns"
  else print_endline "bench smoke FAILED: forensic dump is nondeterministic";
  let gate name eps =
    match baseline_events_per_sec root name with
    | Some b when b > 0.0 ->
      let ratio = eps /. b in
      Printf.printf "[speed %s: %.2fx the BENCH_BASELINE.json floor]\n" name ratio;
      ratio >= 0.8
    | _ ->
      Printf.printf "[speed %s: no baseline floor found, gate skipped]\n" name;
      true
  in
  let speed_ok = gate "wheel" w_eps in
  if speed_ok then print_endline "bench smoke OK: events/sec within 20% of baseline"
  else print_endline "bench smoke FAILED: events/sec regressed >20% vs BENCH_BASELINE.json";
  (* Rack balancer gate: best-of-3 balanced-requests/sec through the
     request-level balancing path vs the "rack" floor, plus the skew
     detector's migration micro (online migration must stay live). *)
  let rack_n, rack_eps =
    let best = ref (rack_run ()) in
    for _ = 2 to 3 do
      let n, eps = rack_run () in
      if eps > snd !best then best := (n, eps)
    done;
    !best
  in
  let rack_migrations = rack_migration_run () in
  Printf.printf "[rack: %d balanced requests, %.0f requests/s, %d migrations applied]\n" rack_n
    rack_eps rack_migrations;
  let rack_floor_ok = gate "rack" rack_eps in
  let rack_ok = rack_floor_ok && rack_migrations > 0 in
  if rack_ok then
    print_endline "bench smoke OK: rack balancer holds its floor and migration stays live"
  else if not rack_floor_ok then
    print_endline "bench smoke FAILED: rack balanced-requests/sec fell below the baseline floor"
  else print_endline "bench smoke FAILED: skew-driven migration applied no migrations";
  (* Rack tracing gate: the same rack world with the distributed tracer
     armed end-to-end vs inert.  Armed dispatch must clear the
     "rack_obs" floor, stay within the always-on budget of the inert
     run, and tile every traced request exactly. *)
  let ro_pairs = rack_traced_pairs 3 in
  (* Best pair by armed/inert ratio: the quietest back-to-back rep. *)
  let ro_inert_n, ro_inert_eps, ro_armed_n, ro_armed_eps, ro_obs_opt =
    List.fold_left
      (fun ((_, bi, _, ba, _) as best) ((_, i, _, a, _) as p) ->
        let ratio i a = if i > 0.0 then a /. i else 0.0 in
        if ratio i a > ratio bi ba then p else best)
      (List.hd ro_pairs) (List.tl ro_pairs)
  in
  let ro_obs = match ro_obs_opt with Some o -> o | None -> assert false in
  let ro_tiling_ok =
    Reflex_rack_obs.Rack_obs.tiling_ok ro_obs
    && Reflex_rack_obs.Rack_obs.slot_overflow ro_obs = 0
  in
  let ro_overhead_pct =
    if ro_inert_eps > 0.0 then (ro_inert_eps -. ro_armed_eps) /. ro_inert_eps *. 100.0
    else 0.0
  in
  let ro_budget_ok = ro_armed_eps >= 0.90 *. ro_inert_eps in
  let ro_ns = ns_per_hop_record ro_obs in
  Printf.printf
    "[rack_obs: inert %.0f req/s, traced %.0f req/s -> %+.1f%% overhead (budget 5%%, gate \
     10%%), %.0f ns/hop-record, %d traced]\n"
    ro_inert_eps ro_armed_eps ro_overhead_pct ro_ns
    (Reflex_rack_obs.Rack_obs.traced ro_obs);
  let ro_best_armed_eps =
    List.fold_left (fun acc (_, _, _, a, _) -> Float.max acc a) 0.0 ro_pairs
  in
  let ro_floor_ok = gate "rack_obs" ro_best_armed_eps in
  let ro_stream_ok =
    ro_inert_n = ro_armed_n
    && List.for_all (fun (i, _, a, _, _) -> i = a) ro_pairs
  in
  let rack_obs_ok = ro_floor_ok && ro_budget_ok && ro_tiling_ok && ro_stream_ok in
  if rack_obs_ok then
    print_endline
      "bench smoke OK: armed rack tracer holds its floor, budget and tiling invariant"
  else if not ro_stream_ok then
    print_endline "bench smoke FAILED: arming the rack tracer changed the dispatch stream"
  else if not ro_tiling_ok then
    print_endline "bench smoke FAILED: rack tracer hop deltas do not tile e2e latency"
  else if not ro_budget_ok then
    print_endline "bench smoke FAILED: armed rack tracer exceeds the 10% events/sec gate"
  else
    print_endline "bench smoke FAILED: traced rack dispatch fell below the baseline floor";
  (* Static-analysis gate: the live tree must lint clean, serial and
     --jobs 2 reports must be byte-identical, and the counts (including
     call-graph statistics) land in BENCH_SMOKE.json for trend tracking. *)
  let lint, lint_wall_s, lint_jobs_eq = run_lint () in
  let lint_clean = Lint_driver.clean lint in
  Printf.printf "[lint: %d file(s), %d rule(s), %d finding(s), %d waiver(s), %.3f s]\n"
    lint.Lint_driver.files_scanned
    (List.length lint.Lint_driver.rules)
    (List.length lint.Lint_driver.findings)
    lint.Lint_driver.waivers_used lint_wall_s;
  (match lint.Lint_driver.gstats with
  | Some g ->
    Printf.printf
      "[lint callgraph: %d node(s), %d edge(s), hot %d+%d, taint %d source(s) -> %d, %d \
       sink(s)]\n"
      g.Lint_interproc.gs_nodes g.Lint_interproc.gs_edges g.Lint_interproc.gs_hot_seeds
      g.Lint_interproc.gs_hot_inferred g.Lint_interproc.gs_taint_sources
      g.Lint_interproc.gs_taint_tainted g.Lint_interproc.gs_identity_sinks
  | None -> ());
  if lint_clean then print_endline "bench smoke OK: reflex-lint reports zero findings"
  else begin
    print_endline "bench smoke FAILED: reflex-lint found violations";
    print_string (Lint_driver.to_text lint)
  end;
  if lint_jobs_eq then
    print_endline "bench smoke OK: lint report is byte-identical serial vs --jobs 2"
  else print_endline "bench smoke FAILED: lint report differs between serial and --jobs 2";
  (match json_path with
  | Some p ->
    write_json p ~rows ~parallel_eq ~wall_parallel ~off_s ~on_s ~overhead_pct ~iops_delta_pct
      ~f_off_s ~f_on_s ~f_overhead_pct ~f_identical ~m_off_s ~m_on_s ~m_overhead_pct
      ~m_identical ~s_events ~w_eps ~w_mwpe ~o_inert_eps ~o_armed_eps ~o_churn_pct ~o_ns_per_record ~o_identical ~o_on_s ~o_wall_pct
      ~o_sweep_eq ~o_dump_digest ~o_dump_eq ~rack_n ~rack_eps ~rack_migrations
      ~ro_inert_eps ~ro_armed_eps ~ro_overhead_pct ~ro_ns
      ~ro_traced:(Reflex_rack_obs.Rack_obs.traced ro_obs)
      ~ro_tiling_ok ~lint ~lint_wall_s ~lint_jobs_eq
  | None -> ());
  if
    not
      (parallel_eq && sim_identical && f_identical && m_identical && speed_ok && o_identical && o_floor_ok && o_sweep_eq && o_wall_ok
     && o_dump_eq && rack_ok && rack_obs_ok && lint_clean && lint_jobs_eq)
  then exit 1
