(* Command-line driver: run any paper experiment by id.

     reflex_sim list
     reflex_sim run fig5 [--full] [--telemetry]
     reflex_sim run all  [--full]
     reflex_sim trace    [--full] [--out FILE]
     reflex_sim chaos    [--full] [--seed N]
     reflex_sim monitor  [--full] [--seed N] [--flight-dump FILE]
     reflex_sim obs      [--full] [--seed N] [--flight-dump FILE] [--dump-json FILE]
     reflex_sim rack     [--full] [--seed N]

   run/trace/chaos/monitor/obs/rack all take the shared [--prom-out FILE]
   / [--trace-out FILE] observability outputs.  chaos/monitor/obs/rack
   run their scenario once and exit 1 when any acceptance check fails. *)

open Cmdliner
open Reflex_experiments
open Reflex_telemetry
module Monitor = Reflex_monitor.Monitor
module Prom_export = Reflex_monitor.Prom_export

let experiments : (string * string * (Common.mode -> unit)) list =
  [
    ( "fig1",
      "p95 read latency vs IOPS per read/write ratio (device A)",
      fun mode -> Reflex_stats.Table.print (Fig1.to_table (Fig1.run ~mode ())) );
    ( "fig3",
      "request cost models and calibration fits for devices A/B/C",
      fun mode -> List.iter Reflex_stats.Table.print (Fig3.to_tables (Fig3.run ~mode ())) );
    ( "table2",
      "unloaded 4KB latency across the six access paths",
      fun mode -> Reflex_stats.Table.print (Table2.to_table (Table2.run ~mode ())) );
    ( "fig4",
      "latency vs throughput, 1KB reads: Local/ReFlex/Libaio x 1/2 threads",
      fun mode -> Reflex_stats.Table.print (Fig4.to_table (Fig4.run ~mode ())) );
    ( "fig5",
      "QoS isolation: 2 LC + 2 BE tenants, scheduler on/off, 2 scenarios",
      fun mode -> Reflex_stats.Table.print (Fig5.to_table (Fig5.run ~mode ())) );
    ( "fig6a",
      "multi-core scaling with per-core LC tenants",
      fun mode -> Reflex_stats.Table.print (Fig6.cores_table (Fig6.run_cores ~mode ())) );
    ( "fig6b",
      "tenant scaling (100 IOPS per tenant)",
      fun mode -> Reflex_stats.Table.print (Fig6.tenants_table (Fig6.run_tenants ~mode ())) );
    ( "fig6c",
      "TCP connection scaling on one core",
      fun mode -> Reflex_stats.Table.print (Fig6.conns_table (Fig6.run_conns ~mode ())) );
    ( "fig7a",
      "FIO latency-throughput over local/iSCSI/ReFlex block devices",
      fun mode -> Reflex_stats.Table.print (Fig7.fio_table (Fig7.run_fio ~mode ())) );
    ( "fig7b",
      "FlashX graph analytics slowdown vs local",
      fun mode -> Reflex_stats.Table.print (Fig7.flashx_table (Fig7.run_flashx ~mode ())) );
    ( "fig7c",
      "RocksDB slowdown vs local",
      fun mode -> Reflex_stats.Table.print (Fig7.rocksdb_table (Fig7.run_rocksdb ~mode ())) );
    ( "ablations",
      "design-choice studies: NEG_LIMIT, donation fraction, batching cap, cost model",
      fun mode ->
        Reflex_stats.Table.print (Ablations.neg_limit_table (Ablations.run_neg_limit ~mode ()));
        Reflex_stats.Table.print (Ablations.donation_table (Ablations.run_donation ~mode ()));
        Reflex_stats.Table.print (Ablations.batching_table (Ablations.run_batching ~mode ()));
        Reflex_stats.Table.print (Ablations.cost_model_table (Ablations.run_cost_model ~mode ()))
    );
  ]

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter (fun (id, desc, _) -> Printf.printf "%-8s %s\n" id desc) experiments;
    Printf.printf "%-8s %s\n" "trace"
      "canonical telemetry scenario (see 'reflex_sim trace --help')";
    Printf.printf "%-8s %s\n" "chaos"
      "scripted fault plan with retries and SLO audit (see 'reflex_sim chaos --help')";
    Printf.printf "%-8s %s\n" "monitor"
      "online monitoring & alerting acceptance scenario (see 'reflex_sim monitor --help')";
    Printf.printf "%-8s %s\n" "obs"
      "flight recorder, forensic dumps & cost profiler acceptance (see 'reflex_sim obs --help')";
    Printf.printf "%-8s %s\n" "rack"
      "rack-scale balancing policy bakeoff, tenant migration & SLO audit (see 'reflex_sim rack --help')";
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let export_trace ?extra tel path =
  Trace_export.write_chrome_json ?extra tel path;
  Printf.printf "\nChrome trace written to %s (load in about://tracing or Perfetto)\n" path

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let export_prom tel path =
  write_file path (Prom_export.render tel);
  Printf.printf "\nPrometheus exposition written to %s\n" path

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"longer windows and denser sweeps")

(* Flags shared by the acceptance scenarios (chaos/monitor/obs/rack). *)
let seed_arg =
  Arg.(
    value & opt int64 42L
    & info [ "seed" ] ~docv:"N" ~doc:"root seed for the simulated world and its generators")

(* Print a scenario's render; its acceptance checks decide the exit
   code. *)
let print_render text checks =
  print_string text;
  Identity.exit_code checks

(* Observability outputs shared by run/trace/chaos/monitor/obs: one
   Cmdliner term so every command accepts the same two flags.  monitor
   and obs enrich both outputs (budget/alert gauges, alert instants);
   the other commands export the plain telemetry registry and spans. *)
let obs_out_term =
  let prom_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:
            "write the run's Prometheus text exposition (telemetry registry; budget and \
             alert gauges where the command has a monitor) to $(docv)")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "write a Chrome trace_event JSON of the run (lifecycle spans, fault windows, \
             causal links; alert instants where the command has a monitor) to $(docv)")
  in
  Term.(const (fun p t -> (p, t)) $ prom_out_arg $ trace_out_arg)

(* First alert-triggered flight dump as a Chrome trace (monitor/obs). *)
let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "write the first alert-triggered flight-recorder dump as Chrome trace_event \
           JSON to $(docv)")

let export_flight_dump dumps path =
  match dumps with
  | [] -> prerr_endline "warning: no alert fired, no flight dump captured"
  | d :: _ ->
    write_file path (Monitor.dump_chrome_json d);
    Printf.printf "\nFlight dump (trigger %s) written to %s\n" d.Monitor.d_rule path

let run_cmd =
  let doc = "Run one experiment (or 'all') and print its table(s)." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc:"experiment id")
  in
  let telemetry_arg =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "enable the telemetry layer (lifecycle tracing, metrics sampling, and a flight \
             recorder whose ring is the scheduler decision log) on every simulated world and \
             print the observability reports for the last world after the run")
  in
  let run id full telemetry (prom_out, trace_out) =
    let telemetry = telemetry || trace_out <> None || prom_out <> None in
    if telemetry then Common.set_default_telemetry true;
    (* The reports and exports read the *last* world's telemetry, which
       every armed world writes: force a serial run (jobs=1) so "last" is
       well defined and no two domains write it. *)
    if telemetry then Runner.set_default_jobs 1;
    let mode = if full then Common.Full else Common.Quick in
    let finish () =
      if telemetry then
        match !Common.last_telemetry with
        | None -> prerr_endline "warning: no telemetry-enabled world was built"
        | Some tel ->
          print_string (Tracing.reports tel);
          Option.iter (export_trace tel) trace_out;
          Option.iter (export_prom tel) prom_out
    in
    if id = "all" then begin
      List.iter (fun (_, _, f) -> f mode) experiments;
      finish ();
      `Ok 0
    end
    else
      match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
      | Some (_, _, f) ->
        f mode;
        finish ();
        `Ok 0
      | None -> `Error (false, "unknown experiment: " ^ id ^ " (try 'list')")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run $ id_arg $ full_arg $ telemetry_arg $ obs_out_term))

let trace_cmd =
  let doc =
    "Run the canonical telemetry scenario (2 cores, 2 LC tenants with 200us/500us SLOs, \
     2 BE write floods) with full lifecycle tracing, and emit per-request latency \
     breakdowns, the component summary, the SLO audit, the scheduler decision log, the \
     metrics report and a Chrome trace_event JSON."
  in
  let out_arg =
    Arg.(
      value
      & opt string "reflex_trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"where to write the Chrome trace JSON")
  in
  let run full out (prom_out, trace_out) =
    let mode = if full then Common.Full else Common.Quick in
    let r = Tracing.run ~mode () in
    let tel = r.Tracing.telemetry in
    print_string (Tracing.render_result r);
    (* --trace-out (the shared flag) overrides -o/--out. *)
    export_trace tel (Option.value trace_out ~default:out);
    Option.iter (export_prom tel) prom_out;
    0
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ full_arg $ out_arg $ obs_out_term)

let chaos_cmd =
  let doc =
    "Run the scripted chaos scenario (die 0 fails at 2s for 2s, GC storm 5s..6s, link \
     flap at 8s for 500ms; x0.1 timeline unless $(b,--full)) against the multi-tenant \
     setup with client retries armed, and print the 500ms-bucket p95 table, the retry \
     and fault counters, the fault-window report and the SLO audit."
  in
  let run full seed (prom_out, trace_out) =
    let mode = if full then Common.Full else Common.Quick in
    let r = Chaos.run ~mode ~seed () in
    let code = print_render (Chaos.render_result r) (Chaos.checks r) in
    print_newline ();
    print_string (Slo_audit.report r.Chaos.telemetry);
    Option.iter (export_trace r.Chaos.telemetry) trace_out;
    Option.iter (export_prom r.Chaos.telemetry) prom_out;
    code
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ full_arg $ seed_arg $ obs_out_term)

let monitor_cmd =
  let doc =
    "Run the monitoring acceptance scenario: the chaos world under the scripted fault \
     plan with the online monitoring pipeline armed (windowed time-series store, SLO \
     error budgets, multi-window burn-rate / load-knee / anomaly alert rules, opt-in \
     remediation).  The render asserts that alerts fire inside injected-fault windows \
     and name the overlapping fault, that a clean control run is silent, that an \
     observer-only monitor leaves the world byte-identical to a no-monitor run, and \
     that an opt-in remediation binding applies."
  in
  let run full seed (prom_out, trace_out) flight_dump =
    let mode = if full then Common.Full else Common.Quick in
    let r = Monitor_exp.run ~mode ~seed () in
    let code = print_render (Monitor_exp.render_result r) (Monitor_exp.checks r) in
    if prom_out <> None || trace_out <> None || flight_dump <> None then begin
      let prom, instants, mon = Monitor_exp.exports r in
      Option.iter
        (fun path ->
          write_file path prom;
          Printf.printf "\nPrometheus exposition written to %s\n" path)
        prom_out;
      Option.iter
        (fun path ->
          Trace_export.write_chrome_json ~extra:instants r.Monitor_exp.faulted.telemetry
            path;
          Printf.printf
            "\nChrome trace written to %s (fault windows + alert instants included)\n" path)
        trace_out;
      Option.iter (export_flight_dump (Monitor.flight_dumps mon)) flight_dump
    end;
    code
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(const run $ full_arg $ seed_arg $ obs_out_term $ flight_dump_arg)

let obs_cmd =
  let doc =
    "Run the observability acceptance scenario: the chaos world with the always-on \
     flight recorder, alert-triggered forensic dumps, causal retry span links and the \
     continuous cost profiler armed.  The render checks that an alert froze a dump \
     naming its trigger alert and the active fault window; the profiler table (host \
     wall time, nondeterministic by design) is printed after it."
  in
  let dump_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-json" ] ~docv:"FILE"
          ~doc:"write the first flight dump's JSON forensic debrief to $(docv)")
  in
  let run full seed (prom_out, trace_out) flight_dump dump_json =
    let mode = if full then Common.Full else Common.Quick in
    (* One profiled run drives the render, the exports and the cost
       table. *)
    let r = Obs_exp.run ~mode ~seed ~profile:true () in
    let code = print_render (Obs_exp.render_result r) (Obs_exp.checks r) in
    print_newline ();
    print_string (Obs_exp.profile_report r);
    Option.iter (export_flight_dump (Obs_exp.dumps r)) flight_dump;
    Option.iter
      (fun path ->
        match Obs_exp.first_debrief r with
        | None -> prerr_endline "warning: no alert fired, no flight dump captured"
        | Some j ->
          write_file path j;
          Printf.printf "\nFlight dump debrief written to %s\n" path)
      dump_json;
    Option.iter
      (fun path ->
        export_trace ~extra:(Monitor.chrome_instants r.Obs_exp.monitor) r.Obs_exp.telemetry
          path)
      trace_out;
    Option.iter
      (fun path ->
        write_file path (Monitor.prometheus r.Obs_exp.monitor);
        Printf.printf "\nPrometheus exposition written to %s\n" path)
      prom_out;
    code
  in
  Cmd.v (Cmd.info "obs" ~doc)
    Term.(
      const run $ full_arg $ seed_arg $ obs_out_term $ flight_dump_arg $ dump_json_arg)

let rack_cmd =
  let doc =
    "Run the rack-scale scheduling scenario: dozens of ReFlex servers behind a \
     request-level balancer, thousands of Zipf-loaded latency-critical tenants with \
     replica sets, and a deliberately uneven best-effort soak.  Prints the policy \
     bakeoff table (random / round-robin / JSQ / power-of-two / oracle: windowed \
     p50/p95/p99, SLO compliance, dispatch imbalance, the po2c-vs-oracle gap) and the \
     migration leg (skew detector firings, migrations applied, imbalance before vs \
     after)."
  in
  let run full seed (prom_out, trace_out) =
    let mode = if full then Common.Full else Common.Quick in
    let r = Rack_exp.run ~mode ~seed () in
    let code = print_render (Rack_exp.render_result r) (Rack_exp.checks r) in
    if prom_out <> None || trace_out <> None then begin
      (* One telemetry-armed po2c leg drives both exports: probe ticks,
         balancing decisions and migrations land in the flight recorder
         and the rack gauges. *)
      let tel = Rack_exp.export_leg ~mode ~seed () in
      Option.iter (export_trace tel) trace_out;
      Option.iter (export_prom tel) prom_out
    end;
    code
  in
  Cmd.v (Cmd.info "rack" ~doc)
    Term.(const run $ full_arg $ seed_arg $ obs_out_term)

let () =
  let doc = "ReFlex (ASPLOS'17) reproduction: run the paper's experiments" in
  let info = Cmd.info "reflex_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; chaos_cmd; monitor_cmd; obs_cmd; rack_cmd ]))
