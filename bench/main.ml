(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) in Quick mode, then runs Bechamel
   microbenchmarks of the implementation's hot paths.

   Usage:  dune exec bench/main.exe [-- --full] [-- --only fig5,table2]
     --full          longer measurement windows, denser sweeps
     --only LIST     comma-separated experiment ids
     --skip-micro    skip the Bechamel microbenchmarks
     --jobs N        fan sweep points across N domains (default: all cores)
     --serial        one domain (same tables: results are order-merged)
     --json PATH     also write machine-readable results, e.g.
                     --json BENCH_$(date +%%F).json *)

open Reflex_experiments

let mode = ref Common.Quick
let only : string list ref = ref []
let skip_micro = ref false
let jobs = ref (Runner.recommended_jobs ())
let json_path : string option ref = ref None

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
      mode := Common.Full;
      go rest
    | "--only" :: spec :: rest ->
      only := String.split_on_char ',' spec;
      go rest
    | "--skip-micro" :: rest ->
      skip_micro := true;
      go rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> jobs := n
      | _ -> failwith "--jobs expects a positive integer");
      go rest
    | "--serial" :: rest ->
      jobs := 1;
      go rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      go rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv))

let enabled id = !only = [] || List.mem id !only

(* (id, wall seconds) per experiment and (name, ns/op) per micro, for
   --json: a perf trajectory future changes can be compared against. *)
let exp_times : (string * float) list ref = ref []
let micro_results : (string * float) list ref = ref []

let timed id f =
  if enabled id then begin
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    exp_times := (id, dt) :: !exp_times;
    Printf.printf "[%s finished in %.1fs]\n\n%!" id dt
  end

let experiments =
  [
    ( "fig1",
      fun mode -> Reflex_stats.Table.print (Fig1.to_table (Fig1.run ~mode ())) );
    ( "fig3",
      fun mode -> List.iter Reflex_stats.Table.print (Fig3.to_tables (Fig3.run ~mode ())) );
    ( "table2",
      fun mode -> Reflex_stats.Table.print (Table2.to_table (Table2.run ~mode ())) );
    ("fig4", fun mode -> Reflex_stats.Table.print (Fig4.to_table (Fig4.run ~mode ())));
    ("fig5", fun mode -> Reflex_stats.Table.print (Fig5.to_table (Fig5.run ~mode ())));
    ( "fig6a",
      fun mode -> Reflex_stats.Table.print (Fig6.cores_table (Fig6.run_cores ~mode ())) );
    ( "fig6b",
      fun mode -> Reflex_stats.Table.print (Fig6.tenants_table (Fig6.run_tenants ~mode ())) );
    ( "fig6c",
      fun mode -> Reflex_stats.Table.print (Fig6.conns_table (Fig6.run_conns ~mode ())) );
    ("fig7a", fun mode -> Reflex_stats.Table.print (Fig7.fio_table (Fig7.run_fio ~mode ())));
    ( "fig7b",
      fun mode -> Reflex_stats.Table.print (Fig7.flashx_table (Fig7.run_flashx ~mode ())) );
    ( "fig7c",
      fun mode -> Reflex_stats.Table.print (Fig7.rocksdb_table (Fig7.run_rocksdb ~mode ())) );
    ( "ablations",
      fun mode ->
        Reflex_stats.Table.print (Ablations.neg_limit_table (Ablations.run_neg_limit ~mode ()));
        Reflex_stats.Table.print (Ablations.donation_table (Ablations.run_donation ~mode ()));
        Reflex_stats.Table.print (Ablations.batching_table (Ablations.run_batching ~mode ()));
        Reflex_stats.Table.print (Ablations.cost_model_table (Ablations.run_cost_model ~mode ()))
    );
  ]

(* ---------------- Telemetry overhead ---------------- *)

(* Wall time of a fixed single-tenant sweep with the observability layer
   disabled vs enabled.  The disabled path must be free (the record
   sites are compiled in, guarded by one immutable bool), so this pins
   the enabled cost and double-checks the simulated results are
   bit-identical either way. *)
let telemetry_overhead_results : (float * float * float) option ref = ref None

let telemetry_overhead () =
  let open Reflex_engine in
  let open Reflex_client in
  let open Reflex_telemetry in
  let point ~telemetry rate =
    let telemetry = if telemetry then Telemetry.create () else Telemetry.disabled in
    let w = Common.make_reflex ~telemetry () in
    let sim = w.Common.sim in
    let client = Common.client_of w ~tenant:1 () in
    let until = Time.add (Sim.now sim) (Time.ms 60) in
    let gen =
      Load_gen.open_loop sim ~client ~rate ~read_ratio:1.0 ~bytes:4096 ~until ~seed:3L ()
    in
    Common.measure_generators sim [ gen ] ~warmup:(Time.ms 10) ~window:(Time.ms 40);
    Load_gen.achieved_iops gen
  in
  let rates = [ 40e3; 80e3; 120e3; 160e3 ] in
  let reps = 3 in
  let run ~telemetry =
    let t0 = Unix.gettimeofday () in
    let r = ref [] in
    for _ = 1 to reps do
      r := List.map (point ~telemetry) rates
    done;
    (Unix.gettimeofday () -. t0, !r)
  in
  let off_s, off_iops = run ~telemetry:false in
  let on_s, on_iops = run ~telemetry:true in
  if not (List.for_all2 Float.equal off_iops on_iops) then
    print_endline "WARNING: telemetry perturbed simulated IOPS";
  let overhead_pct = if off_s > 0.0 then (on_s -. off_s) /. off_s *. 100.0 else 0.0 in
  telemetry_overhead_results := Some (off_s, on_s, overhead_pct);
  Printf.printf "== telemetry overhead ==\noff %.2fs / on %.2fs (%dx%d points): %+.1f%%\n\n%!"
    off_s on_s reps (List.length rates) overhead_pct

(* ---------------- Raw event-loop speed ---------------- *)

(* Simulated-events/sec of a pure event-churn workload: [chains]
   self-rescheduling events with per-chain prng strides, every fourth hop
   arming a decoy timer that the next hop cancels — the
   schedule/cancel/pop mix of a dataplane at load with no flash or
   network model in the way.  Alongside wall time we report minor-GC
   words per event: the zero-alloc discipline of the wheel and event
   arena shows up as a small constant that does not scale with event
   count. *)

let speed_results : (int * float * float) option ref = ref None
(* (events, events/sec, minor words per event) *)

let speed_leg () =
  let open Reflex_engine in
  let chains = 64 in
  let hops = match !mode with Common.Full -> 20_000 | Common.Quick -> 4_000 in
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
  speed_results := Some (n, eps, mwpe);
  Printf.printf "== event-loop speed (%d chains x %d hops) ==\n" chains hops;
  Printf.printf "%9d events  %12.0f events/s  %6.2f minor words/event\n\n%!" n eps mwpe

(* ---------------- Continuous cost profiler ---------------- *)

(* Two views of where the simulator's own host cost goes:

   1. Per-subsystem shares: the full observability scenario (lib/experiments
      Obs_exp — LC/BE tenants, retries, faults, monitor) run once with the
      lib/obs cost profiler armed, attributing wall time and minor-heap
      words to engine/qos/flash/net/telemetry/monitor scopes.

   2. Scheduler-tick cost curve: a standalone token scheduler with N LC
      tenants, measuring host nanoseconds per schedule round as N grows —
      the per-tick cost the ROADMAP's 100K-tenant item needs to stay flat
      per tenant.

   Both are nondeterministic host measurements (see profiler.mli); they are
   reported here and in the --json "profile" section only. *)

let profile_shares : (string * float * float * float) list ref = ref []
let tick_curve : (int * float * float) list ref = ref []
(* (tenants, ns per round, ns per round per tenant) *)

let profile_leg () =
  let open Reflex_engine in
  let open Reflex_qos in
  let module Profiler = Reflex_obs.Profiler in
  let r = Obs_exp.run ~mode:!mode ~profile:true () in
  profile_shares := Profiler.shares r.Obs_exp.profiler;
  Printf.printf "== cost profiler: observability scenario ==\n%s\n%!"
    (Profiler.report r.Obs_exp.profiler);
  let counts =
    match !mode with
    | Common.Full -> [ 16; 64; 256; 1024; 4096 ]
    | Common.Quick -> [ 16; 64; 256; 1024 ]
  in
  let rounds = match !mode with Common.Full -> 2_000 | Common.Quick -> 500 in
  Printf.printf "== scheduler-tick cost vs tenant count (%d rounds each) ==\n" rounds;
  List.iter
    (fun n ->
      let global = Global_bucket.create ~n_threads:1 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      for i = 1 to n do
        Scheduler.add_tenant sched
          (Tenant.create ~id:i
             ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100)
             ~token_rate:1e6)
      done;
      for i = 1 to n do
        Scheduler.enqueue sched ~tenant_id:i ~cost:1.0 ()
      done;
      (* Round 0 drains the queued work; the timed rounds then measure the
         steady-state per-tick walk (refill + decision per tenant). *)
      ignore (Scheduler.schedule sched ~now:(Time.us 100) ~submit:(fun _ -> ()));
      let t0 = Unix.gettimeofday () in
      for k = 1 to rounds do
        ignore (Scheduler.schedule sched ~now:(Time.us (100 + (100 * k))) ~submit:(fun _ -> ()))
      done;
      let wall = Unix.gettimeofday () -. t0 in
      let ns_round = wall /. float_of_int rounds *. 1e9 in
      let ns_tenant = ns_round /. float_of_int n in
      tick_curve := (n, ns_round, ns_tenant) :: !tick_curve;
      Printf.printf "%6d tenants  %12.0f ns/round  %8.1f ns/round/tenant\n%!" n ns_round
        ns_tenant)
    counts;
  print_newline ()

(* ---------------- Rack balancing throughput ---------------- *)

(* Wall-clock requests/sec through the rack's request-level balancer,
   one small fixed world per policy (8 servers, 64 tenants with 3-way
   replica sets, periodic probe refresh): this prices the pick +
   ingress-charge + dispatch path itself, not the scenario around it.
   A skew-driven migration micro rides along so the JSON records that
   online migration stays live. *)

let rack_results : (string * int * float) list ref = ref []
(* (policy, balanced requests, wall requests/sec) *)

let rack_migration_count = ref 0

let rack_leg () =
  let open Reflex_engine in
  let open Reflex_rack in
  let n_servers = 8 and n_tenants = 64 in
  let window = match !mode with Common.Full -> Time.ms 40 | Common.Quick -> Time.ms 10 in
  Printf.printf "== rack request-level balancing (%d servers, %d tenants, 3 replicas) ==\n"
    n_servers n_tenants;
  List.iter
    (fun kind ->
      let sim = Sim.create ~seed:7L () in
      let rack = Rack.create sim ~n_servers ~policy:kind ~seed:0xBE11L () in
      let slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100 in
      for id = 1 to n_tenants do
        ignore (Rack.add_tenant rack ~id ~slo ~replicas:3)
      done;
      let t0 = Sim.now sim in
      let t_end = Time.add t0 window in
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
      let rps = if wall > 0.0 then float_of_int n /. wall else 0.0 in
      rack_results := (Policy.kind_name kind, n, rps) :: !rack_results;
      Printf.printf "%-12s %8d balanced requests  %12.0f requests/s (wall)\n%!"
        (Policy.kind_name kind) n rps)
    Policy.all;
  (* Migration micro: everything pinned on server 0, detector armed on
     the probe tick — count migrations actually applied. *)
  let sim = Sim.create ~seed:9L () in
  let rack = Rack.create sim ~n_servers ~policy:Policy.Po2c ~seed:0x3160L () in
  let slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100 in
  for id = 1 to 24 do
    ignore (Rack.add_tenant_on rack ~id ~slo ~server:0)
  done;
  let t0 = Sim.now sim in
  let t_end = Time.add t0 window in
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
  rack_migration_count := Rack.migrations rack;
  Printf.printf "migration micro: %d skew firings, %d migrations applied\n\n%!" (Skew.fires sk)
    !rack_migration_count

(* ---------------- Rack tracing overhead ---------------- *)

(* Armed-vs-inert requests/sec on the po2c rack world above, paired
   back-to-back so machine-load swings hit both sides of the ratio, plus
   the bulk ns cost of the flight-ring write each hop stamp performs.
   This prices the always-on distributed tracer the way the bench-smoke
   gate does, but records the numbers for trend tracking. *)

let rack_obs_results : (float * float * float * int) list ref = ref []
(* (inert requests/sec, armed requests/sec, ns/hop-record, traced) — one entry *)

let rack_obs_leg () =
  let open Reflex_engine in
  let open Reflex_rack in
  let n_servers = 8 and n_tenants = 64 in
  let window = match !mode with Common.Full -> Time.ms 40 | Common.Quick -> Time.ms 10 in
  Printf.printf "== rack distributed tracing (po2c world, armed vs inert) ==\n";
  let run ~armed =
    let sim = Sim.create ~seed:7L () in
    let rack = Rack.create sim ~n_servers ~policy:Policy.Po2c ~seed:0xBE11L () in
    let obs = if armed then Some (Reflex_rack_obs.Rack_obs.create rack) else None in
    let slo = Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100 in
    for id = 1 to n_tenants do
      ignore (Rack.add_tenant rack ~id ~slo ~replicas:3)
    done;
    let t0 = Sim.now sim in
    let t_end = Time.add t0 window in
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
    let rps = if wall > 0.0 then float_of_int n /. wall else 0.0 in
    (rps, obs)
  in
  let best_i = ref 0.0 and best_a = ref 0.0 and best_ratio = ref infinity in
  let last_obs = ref None in
  for _ = 1 to 3 do
    let i, _ = run ~armed:false in
    let a, obs = run ~armed:true in
    last_obs := obs;
    if i > 0.0 && a /. i < !best_ratio then begin
      best_ratio := a /. i;
      best_i := i;
      best_a := a
    end
  done;
  let obs = match !last_obs with Some o -> o | None -> assert false in
  let bulk = 2_000_000 in
  let w0 = Unix.gettimeofday () in
  Reflex_rack_obs.Rack_obs.bench_hop_records obs bulk;
  let ns = (Unix.gettimeofday () -. w0) /. float_of_int bulk *. 1e9 in
  let traced = Reflex_rack_obs.Rack_obs.traced obs in
  rack_obs_results := [ (!best_i, !best_a, ns, traced) ];
  Printf.printf
    "inert %12.0f requests/s   armed %12.0f requests/s   %+.1f%% overhead\n%.0f ns/hop-record, %d traced, tiling exact: %b\n\n%!"
    !best_i !best_a
    ((!best_i -. !best_a) /. !best_i *. 100.0)
    ns traced
    (Reflex_rack_obs.Rack_obs.tiling_ok obs)

(* ---------------- Bechamel microbenchmarks ---------------- *)

let micro_benchmarks () =
  let open Bechamel in
  let open Reflex_engine in
  let open Reflex_qos in
  (* Scheduler round: 8 LC + 8 BE tenants with queued work. *)
  let sched_round =
    Test.make ~name:"qos_scheduler_round"
      (Staged.stage (fun () ->
           let global = Global_bucket.create ~n_threads:1 in
           let sched = Scheduler.create ~global ~thread_id:0 () in
           for i = 1 to 8 do
             Scheduler.add_tenant sched
               (Tenant.create ~id:i
                  ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100)
                  ~token_rate:1e6)
           done;
           for i = 9 to 16 do
             Scheduler.add_tenant sched
               (Tenant.create ~id:i ~slo:(Slo.best_effort ()) ~token_rate:1e5)
           done;
           for i = 1 to 16 do
             for _ = 1 to 4 do
               Scheduler.enqueue sched ~tenant_id:i ~cost:1.0 ()
             done
           done;
           ignore (Scheduler.schedule sched ~now:(Time.us 100) ~submit:(fun _ -> ()))))
  in
  let hist_record =
    let h = Reflex_stats.Hdr_histogram.create () in
    Test.make ~name:"hdr_histogram_record"
      (Staged.stage (fun () -> Reflex_stats.Hdr_histogram.record h 123_456L))
  in
  let flash_io =
    Test.make ~name:"flash_model_4k_read"
      (Staged.stage
         (let sim = Sim.create () in
          let dev =
            Reflex_flash.Nvme_model.create sim
              ~profile:Reflex_flash.Device_profile.device_a
              ~prng:(Prng.create 1L)
          in
          fun () ->
            Reflex_flash.Nvme_model.submit dev ~kind:Reflex_flash.Io_op.Read ~bytes:4096
              (fun ~latency:_ -> ());
            ignore (Sim.run sim)))
  in
  let wheel_churn =
    Test.make ~name:"sim_event_schedule_run_wheel"
      (Staged.stage (fun () ->
           let sim = Sim.create () in
           for i = 1 to 64 do
             ignore (Sim.at sim (Time.us i) (fun () -> ()))
           done;
           ignore (Sim.run sim)))
  in
  (* Raw queue datapath, no Sim wrapper: 256 scattered pushes then a
     full drain, on the wheel and on the heap behind its overflow. *)
  let heap_queue =
    let q = Heap.create () in
    Test.make ~name:"engine_heap_push_pop"
      (Staged.stage (fun () ->
           for i = 0 to 255 do
             Heap.push q ~time:(Time.us (((i * 37) land 255) + 1)) ~seq:i i
           done;
           let rec drain () = match Heap.pop q with Some _ -> drain () | None -> () in
           drain ()))
  in
  let wheel_queue =
    let q = Wheel.create () in
    (* The cursor only moves forward, so each iteration pushes into a
       fresh 256us window past the last drain — keeping the measurement
       on the in-wheel slot path rather than the below-cursor fallback. *)
    let base = ref 1 in
    Test.make ~name:"engine_wheel_push_pop"
      (Staged.stage (fun () ->
           let b = !base in
           for i = 0 to 255 do
             Wheel.push q ~time:(Time.us (b + ((i * 37) land 255))) ~seq:i i
           done;
           base := b + 257;
           let rec drain () = match Wheel.pop q with Some _ -> drain () | None -> () in
           drain ()))
  in
  let tests = [ sched_round; hist_record; flash_io; wheel_churn; heap_queue; wheel_queue ] in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance
        raw
    in
    results
  in
  Printf.printf "== Bechamel microbenchmarks (ns/op) ==\n";
  List.iter
    (fun test ->
      let results = benchmark test in
      (* Name-sorted rows: bechamel hands back a Hashtbl, and the printed
         table must not depend on its layout. *)
      let rows =
        Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, result) ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some (t :: _) ->
            micro_results := (name, t) :: !micro_results;
            Printf.printf "%-28s %12.1f\n" name t
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        rows)
    tests;
  print_newline ()

(* ---------------- JSON results ---------------- *)

let write_json path =
  let oc = open_out path in
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"date\": \"%04d-%02d-%02d\",\n" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday;
  Printf.fprintf oc "  \"git_sha\": \"%s\",\n" (Common.git_sha ());
  Printf.fprintf oc "  \"seed\": %Ld,\n" Reflex_engine.Sim.default_seed;
  Printf.fprintf oc "  \"mode\": \"%s\",\n"
    (match !mode with Common.Quick -> "quick" | Common.Full -> "full");
  Printf.fprintf oc "  \"jobs\": %d,\n" !jobs;
  Printf.fprintf oc "  \"experiments\": [\n";
  let exps = List.rev !exp_times in
  List.iteri
    (fun i (id, dt) ->
      Printf.fprintf oc "    {\"id\": \"%s\", \"wall_s\": %.3f}%s\n" id dt
        (if i = List.length exps - 1 then "" else ","))
    exps;
  Printf.fprintf oc "  ],\n";
  (match !telemetry_overhead_results with
  | Some (off_s, on_s, pct) ->
    Printf.fprintf oc
      "  \"telemetry\": {\"off_wall_s\": %.3f, \"on_wall_s\": %.3f, \"overhead_pct\": %.2f},\n"
      off_s on_s pct
  | None -> ());
  (match !speed_results with
  | None -> ()
  | Some (n, eps, mwpe) ->
    Printf.fprintf oc
      "  \"speed\": {\"events\": %d, \"events_per_sec\": %.0f, \"minor_words_per_event\": %.3f},\n"
      n eps mwpe);
  if !profile_shares <> [] || !tick_curve <> [] then begin
    Printf.fprintf oc "  \"profile\": {\n";
    Printf.fprintf oc "    \"subsystems\": [\n";
    let shares = !profile_shares in
    List.iteri
      (fun i (name, self_s, share, mwords) ->
        Printf.fprintf oc
          "      {\"name\": \"%s\", \"self_wall_ms\": %.3f, \"wall_share\": %.4f, \
           \"minor_words\": %.0f}%s\n"
          name (1e3 *. self_s) share mwords
          (if i = List.length shares - 1 then "" else ","))
      shares;
    Printf.fprintf oc "    ],\n";
    Printf.fprintf oc "    \"scheduler_tick\": [\n";
    let curve = List.rev !tick_curve in
    List.iteri
      (fun i (n, ns_round, ns_tenant) ->
        Printf.fprintf oc
          "      {\"tenants\": %d, \"ns_per_round\": %.0f, \"ns_per_tenant\": %.1f}%s\n" n
          ns_round ns_tenant
          (if i = List.length curve - 1 then "" else ","))
      curve;
    Printf.fprintf oc "    ]\n";
    Printf.fprintf oc "  },\n"
  end;
  (match List.rev !rack_results with
  | [] -> ()
  | rows ->
    Printf.fprintf oc "  \"rack\": {\n";
    Printf.fprintf oc "    \"policies\": [\n";
    List.iteri
      (fun i (name, n, rps) ->
        Printf.fprintf oc
          "      {\"policy\": \"%s\", \"balanced_requests\": %d, \"requests_per_sec\": %.0f}%s\n"
          name n rps
          (if i = List.length rows - 1 then "" else ","))
      rows;
    Printf.fprintf oc "    ],\n";
    Printf.fprintf oc "    \"migrations\": %d\n" !rack_migration_count;
    Printf.fprintf oc "  },\n");
  (match !rack_obs_results with
  | [] -> ()
  | (inert, armed, ns, traced) :: _ ->
    Printf.fprintf oc "  \"rack_obs\": {\n";
    Printf.fprintf oc "    \"inert_requests_per_sec\": %.0f,\n" inert;
    Printf.fprintf oc "    \"armed_requests_per_sec\": %.0f,\n" armed;
    Printf.fprintf oc "    \"overhead_pct\": %.2f,\n"
      (if inert > 0.0 then (inert -. armed) /. inert *. 100.0 else 0.0);
    Printf.fprintf oc "    \"ns_per_hop_record\": %.1f,\n" ns;
    Printf.fprintf oc "    \"traced_requests\": %d\n" traced;
    Printf.fprintf oc "  },\n");
  Printf.fprintf oc "  \"micros\": [\n";
  let micros = List.rev !micro_results in
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_op\": %.2f}%s\n" name ns
        (if i = List.length micros - 1 then "" else ","))
    micros;
  Printf.fprintf oc "  ]\n";
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n%!" path

let () =
  parse_args ();
  Runner.set_default_jobs !jobs;
  Printf.printf "ReFlex reproduction harness (%s mode, %d job%s)\n\n%!"
    (match !mode with Common.Quick -> "quick" | Common.Full -> "full")
    !jobs
    (if !jobs = 1 then "" else "s");
  List.iter (fun (id, f) -> timed id (fun () -> f !mode)) experiments;
  if enabled "telemetry" then telemetry_overhead ();
  if enabled "speed" then speed_leg ();
  if enabled "rack" then rack_leg ();
  if enabled "rack_obs" then rack_obs_leg ();
  if enabled "profile" then profile_leg ();
  if (not !skip_micro) && enabled "micro" then micro_benchmarks ();
  match !json_path with Some p -> write_json p | None -> ()
