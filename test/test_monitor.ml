(* Tests for the online monitoring & alerting subsystem (lib/monitor). *)

open Reflex_engine
open Reflex_stats
open Reflex_monitor

(* ------------------------------------------------------------------ *)
(* Budget: burn-rate arithmetic                                       *)
(* ------------------------------------------------------------------ *)

let test_burn_rate_arithmetic () =
  (* bad fraction 14/1000 against a 99.9% target burns 14x. *)
  Alcotest.(check (float 1e-9)) "14x" 14.0
    (Budget.burn_rate_of ~target:0.999 ~good:986.0 ~bad:14.0);
  (* all-bad traffic at 99% burns 100x: 1.0 / 0.01. *)
  Alcotest.(check (float 1e-9)) "100x" 100.0
    (Budget.burn_rate_of ~target:0.99 ~good:0.0 ~bad:50.0);
  (* burning exactly at plan: bad fraction equals the allowance. *)
  Alcotest.(check (float 1e-9)) "1x" 1.0
    (Budget.burn_rate_of ~target:0.99 ~good:99.0 ~bad:1.0);
  (* an empty window burns nothing. *)
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Budget.burn_rate_of ~target:0.999 ~good:0.0 ~bad:0.0)

let test_budget_accounting () =
  (* target 0.5 is exact in binary, so "exactly spent" really is 1.0. *)
  let b = Budget.create ~tenant:7 ~target:0.5 in
  Alcotest.(check (float 1e-9)) "fresh consumed" 0.0 (Budget.consumed b);
  Budget.record b ~good:1.0 ~bad:1.0;
  (* observed bad fraction equals the allowance: budget exactly spent. *)
  Alcotest.(check (float 1e-9)) "consumed" 1.0 (Budget.consumed b);
  Alcotest.(check (float 1e-9)) "burn" 1.0 (Budget.burn_rate b);
  (* windows accumulate over the whole run *)
  Budget.record b ~good:2.0 ~bad:0.0;
  Alcotest.(check string) "pp" "tenant 7: target=0.5000 bad=1/4 consumed=50.0% burn=0.50"
    (Fmt.str "%a" Budget.pp b)

let test_budget_validation () =
  Alcotest.check_raises "target 1.0 rejected"
    (Invalid_argument "Budget.create: target must be in (0,1)") (fun () ->
      ignore (Budget.create ~tenant:0 ~target:1.0));
  let b = Budget.create ~tenant:0 ~target:0.9 in
  Alcotest.check_raises "negative counts rejected"
    (Invalid_argument "Budget.record: negative counts") (fun () ->
      Budget.record b ~good:(-1.0) ~bad:0.0)

(* ------------------------------------------------------------------ *)
(* Tsdb: windowed sources                                             *)
(* ------------------------------------------------------------------ *)

let test_tsdb_windows () =
  let ts = Tsdb.create () in
  let c = ref 0.0 in
  let h = Hdr_histogram.create () in
  Tsdb.register_cumulative ts "c" (fun () -> !c);
  Tsdb.register_hist ts "h" h;
  Tsdb.register_derived ts "twice_c" (fun w ->
      2.0 *. Option.value ~default:0.0 (Tsdb.value w "c"));
  let last () = match Tsdb.last ts with Some w -> w | None -> Alcotest.fail "no window" in
  c := 10.0;
  Hdr_histogram.record h 100L;
  Hdr_histogram.record h 200L;
  Tsdb.tick ts ~now:(Time.ms 1);
  let w1 = last () in
  c := 25.0;
  Hdr_histogram.record h 5000L;
  Tsdb.tick ts ~now:(Time.ms 2);
  let w2 = last () in
  Alcotest.(check int) "two windows" 2 (Tsdb.windows_closed ts);
  (* cumulative source -> per-window deltas *)
  Alcotest.(check (option (float 1e-9))) "w1 delta" (Some 10.0) (Tsdb.value w1 "c");
  Alcotest.(check (option (float 1e-9))) "w2 delta" (Some 15.0) (Tsdb.value w2 "c");
  (* derived sees the freshly closed base window *)
  Alcotest.(check (option (float 1e-9))) "derived" (Some 30.0) (Tsdb.value w2 "twice_c");
  (* histogram -> exact per-window delta, not a cumulative aggregate *)
  (match (Tsdb.hist w1 "h", Tsdb.hist w2 "h") with
  | Some d1, Some d2 ->
    Alcotest.(check int) "w1 hist delta" 2 (Hdr_histogram.count d1);
    Alcotest.(check int) "w2 hist delta" 1 (Hdr_histogram.count d2);
    Alcotest.(check bool) "w2 p95 is the delta's" true
      (Hdr_histogram.percentile_us d2 95.0 > 4.0)
  | _ -> Alcotest.fail "missing hist");
  (* span + sum_last *)
  Alcotest.(check (float 1e-9)) "span" 1000.0 (Tsdb.span_us w2);
  Alcotest.(check (float 1e-9)) "sum_last" 25.0 (Tsdb.sum_last ts ~k:2 "c")

let test_tsdb_ring_eviction () =
  let ts = Tsdb.create ~capacity:2 () in
  let c = ref 0.0 in
  Tsdb.register_cumulative ts "c" (fun () -> !c);
  List.iter
    (fun i ->
      c := !c +. 1.0;
      Tsdb.tick ts ~now:(Time.ms i))
    [ 1; 2; 3 ];
  (* each window holds a delta of 1; only the newest two are retained *)
  Alcotest.(check (float 1e-9)) "retained" 2.0 (Tsdb.sum_last ts ~k:3 "c");
  Alcotest.(check int) "closed total" 3 (Tsdb.windows_closed ts);
  (* a second tick at the same instant is a no-op *)
  Tsdb.tick ts ~now:(Time.ms 3);
  Alcotest.(check int) "same-time tick ignored" 3 (Tsdb.windows_closed ts)

let test_tsdb_duplicate_and_disabled () =
  let ts = Tsdb.create () in
  Tsdb.register_cumulative ts "x" (fun () -> 0.0);
  Alcotest.check_raises "duplicate source" (Invalid_argument "Tsdb: duplicate source x")
    (fun () -> Tsdb.register_derived ts "x" (fun _ -> 1.0));
  let d = Tsdb.disabled in
  Tsdb.register_cumulative d "x" (fun () -> 0.0);
  (* a second registration would raise if the first had been kept *)
  Tsdb.register_cumulative d "x" (fun () -> 0.0);
  Tsdb.tick d ~now:(Time.ms 5);
  Alcotest.(check bool) "disabled holds no window" true (Tsdb.last d = None);
  Alcotest.(check int) "disabled closes nothing" 0 (Tsdb.windows_closed d)

(* ------------------------------------------------------------------ *)
(* Alerts: rule state machine                                         *)
(* ------------------------------------------------------------------ *)

(* Drive a one-source tsdb and a rule whose verdict is a mutable flag. *)
let flag_world () =
  let ts = Tsdb.create () in
  Tsdb.register_cumulative ts "c" (fun () -> 0.0);
  let al = Alerts.create () in
  let bad = ref false in
  Alerts.add al (Alerts.rule ~name:"r" (fun _ _ -> if !bad then Some "bad" else None));
  let step i =
    Tsdb.tick ts ~now:(Time.ms i);
    Alerts.step al ts ~now:(Time.ms i)
  in
  (al, bad, step)

let kinds evs = List.map (fun (e : Alerts.event) -> e.e_kind) evs

let test_alerts_immediate () =
  let al, bad, step = flag_world () in
  Alcotest.(check int) "quiet" 0 (List.length (step 1));
  bad := true;
  Alcotest.(check bool) "fires on first bad window" true (kinds (step 2) = [ Alerts.Fired ]);
  Alcotest.(check (list string)) "firing" [ "r" ] (Alerts.firing al);
  Alcotest.(check int) "no re-fire while firing" 0 (List.length (step 3));
  bad := false;
  Alcotest.(check bool) "resolves on first clean window" true
    (kinds (step 4) = [ Alerts.Resolved ]);
  Alcotest.(check (list string)) "nothing firing" [] (Alerts.firing al);
  Alcotest.(check int) "fired total" 1 (Alerts.fired_total al)

let test_alerts_burn_rule () =
  let ts = Tsdb.create () in
  let good = ref 0.0 and bad = ref 0.0 in
  Tsdb.register_cumulative ts "good" (fun () -> !good);
  Tsdb.register_cumulative ts "bad" (fun () -> !bad);
  let al = Alerts.create () in
  Alerts.add al
    (Alerts.burn_rule ~name:"burn" ~target:0.9 ~good:"good" ~bad:"bad" ~short:(1, 5.0)
       ~long:(2, 2.0) ());
  (* window 1: all good -> no burn *)
  good := 10.0;
  Tsdb.tick ts ~now:(Time.ms 1);
  Alcotest.(check int) "good window quiet" 0 (List.length (Alerts.step al ts ~now:(Time.ms 1)));
  (* window 2: all bad.  short burn = 1.0/0.1 = 10 >= 5; long over both
     windows = 0.5/0.1 = 5 >= 2 -> fires. *)
  bad := 10.0;
  Tsdb.tick ts ~now:(Time.ms 2);
  (match Alerts.step al ts ~now:(Time.ms 2) with
  | [ e ] ->
    Alcotest.(check bool) "fired" true (e.Alerts.e_kind = Alerts.Fired);
    Alcotest.(check bool) "detail shows burns" true
      (String.length e.Alerts.e_detail > 0)
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs)))

let test_alerts_deterministic_order_and_annotate () =
  let ts = Tsdb.create () in
  Tsdb.register_cumulative ts "c" (fun () -> 0.0);
  let al = Alerts.create ~annotate:(fun _ -> Some "ctx") () in
  (* registered out of name order; events must come out name-sorted *)
  Alerts.add al (Alerts.rule ~name:"zeta" (fun _ _ -> Some "z"));
  Alerts.add al (Alerts.rule ~name:"alpha" (fun _ _ -> Some "a"));
  Alcotest.check_raises "duplicate rule" (Invalid_argument "Alerts.add: duplicate rule alpha")
    (fun () -> Alerts.add al (Alerts.rule ~name:"alpha" (fun _ _ -> None)));
  Tsdb.tick ts ~now:(Time.ms 1);
  let evs = Alerts.step al ts ~now:(Time.ms 1) in
  Alcotest.(check (list string)) "events in name order" [ "alpha"; "zeta" ]
    (List.map (fun (e : Alerts.event) -> e.e_rule) evs);
  Alcotest.(check (list string)) "firing in name order" [ "alpha"; "zeta" ] (Alerts.firing al);
  List.iter
    (fun (e : Alerts.event) ->
      Alcotest.(check bool) "fired detail annotated" true
        (String.length e.e_detail >= 3
        && String.sub e.e_detail (String.length e.e_detail - 3) 3 = "ctx"))
    evs

(* ------------------------------------------------------------------ *)
(* Detect                                                             *)
(* ------------------------------------------------------------------ *)

let test_ewma_zscore () =
  let e = Detect.Ewma.create ~sigma_floor:1.0 () in
  (* warmup observations score 0 *)
  for _ = 1 to 5 do
    Alcotest.(check (float 1e-9)) "warmup z" 0.0 (Detect.Ewma.observe e 100.0)
  done;
  Alcotest.(check bool) "warmed up" true (Detect.Ewma.warmed_up e);
  (* constant series: sigma is the floor, in-line value scores 0 *)
  Alcotest.(check (float 1e-9)) "sigma floored" 1.0 (Detect.Ewma.sigma e);
  Alcotest.(check (float 1e-9)) "in-line z" 0.0 (Detect.Ewma.observe e 100.0);
  (* a spike is scored against the PRE-spike baseline *)
  let z = Detect.Ewma.observe e 150.0 in
  Alcotest.(check bool) (Printf.sprintf "spike z=%.1f large" z) true (z >= 10.0);
  (* and the baseline has since moved toward the spike *)
  Alcotest.(check bool) "baseline adapted" true (Detect.Ewma.mean e > 100.0)

let test_knee_crossed () =
  let knee ~rate ~p95_us =
    Detect.knee_crossed ~knee_rate:100.0 ~knee_latency_us:500.0 ~rate ~p95_us
  in
  Alcotest.(check bool) "past knee" true (knee ~rate:120.0 ~p95_us:800.0);
  Alcotest.(check bool) "high rate, good latency" false (knee ~rate:120.0 ~p95_us:300.0);
  Alcotest.(check bool) "low rate, bad latency" false (knee ~rate:50.0 ~p95_us:800.0);
  Alcotest.(check bool) "healthy" false (knee ~rate:50.0 ~p95_us:300.0);
  Alcotest.check_raises "bad knee rate"
    (Invalid_argument "Detect.knee_crossed: non-positive knee_rate") (fun () ->
      ignore (Detect.knee_crossed ~rate:1.0 ~knee_rate:0.0 ~p95_us:1.0 ~knee_latency_us:1.0))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                              *)
(* ------------------------------------------------------------------ *)

let contains_sub = Reflex_experiments.Common.contains_sub

let test_prom_export () =
  Alcotest.(check string) "sanitize path" "qos_t7_latency" (Prom_export.sanitize "qos/t7/latency");
  Alcotest.(check string) "leading digit" "_7x" (Prom_export.sanitize "7x");
  Alcotest.(check string) "empty" "_" (Prom_export.sanitize "");
  Alcotest.(check bool) "label escaping" true
    (contains_sub (Prom_export.line ~name:"m" ~labels:[ ("l", "a\"b") ] 1.0) "l=\"a\\\"b\"");
  let tel = Reflex_telemetry.Telemetry.create () in
  Reflex_telemetry.Telemetry.add (Reflex_telemetry.Telemetry.counter tel "faults/injected") 3.0;
  Reflex_telemetry.Telemetry.register_gauge tel "core/util" (fun () -> 0.5);
  let h = Reflex_telemetry.Telemetry.histogram tel "flash/read_ns" in
  Hdr_histogram.record h 90_000L;
  let page = Prom_export.render tel in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains_sub page needle))
    [
      "# TYPE reflex_faults_injected counter";
      "reflex_faults_injected 3";
      "# TYPE reflex_core_util gauge";
      "reflex_core_util 0.5";
      "# TYPE reflex_flash_read_ns_us summary";
      "quantile=\"0.95\"";
      "reflex_flash_read_ns_us_count 1";
    ]

(* ------------------------------------------------------------------ *)
(* Remediate + disabled-monitor contract on a real world              *)
(* ------------------------------------------------------------------ *)

open Reflex_experiments

let test_remediate_actions () =
  let telemetry = Reflex_telemetry.Telemetry.create () in
  let w = Common.make_reflex ~telemetry ~seed:5L () in
  let server = w.Common.server in
  ignore
    (Common.client_of w ~slo:(Common.lc_slo ~latency_us:500 ~iops:10_000 ~read_pct:100)
       ~tenant:1 ());
  let dev = Reflex_core.Server.device server in
  let factor () =
    Reflex_core.Control_plane.capacity_factor (Reflex_core.Server.control_plane server)
  in
  let expected () = Float.max 0.05 (Reflex_flash.Nvme_model.effective_capacity dev) in
  let reprice () = Remediate.apply server Remediate.Reprice_for_device in
  let n_dies = (Reflex_flash.Nvme_model.profile dev).Reflex_flash.Device_profile.n_dies in
  (* two dies down: the factor follows the healthy fraction *)
  Reflex_flash.Nvme_model.fail_die dev ~die:0;
  Reflex_flash.Nvme_model.fail_die dev ~die:1;
  Alcotest.(check (float 1e-9)) "healthy fraction"
    (float_of_int (n_dies - 2) /. float_of_int n_dies)
    (expected ());
  Alcotest.(check string) "reprice outcome"
    (Printf.sprintf "repriced from device health (factor=%.2f)" (expected ()))
    (reprice ());
  Alcotest.(check (float 1e-9)) "factor pushed" (expected ()) (factor ());
  (* every die down: the factor stops at the 0.05 floor, not 0 *)
  for die = 2 to n_dies - 1 do
    Reflex_flash.Nvme_model.fail_die dev ~die
  done;
  Alcotest.(check string) "floored outcome" "repriced from device health (factor=0.05)"
    (reprice ());
  Alcotest.(check (float 1e-9)) "factor floored" 0.05 (factor ());
  Alcotest.(check string) "log action" "hello" (Remediate.apply server (Remediate.Log "hello"))

(* Over a disabled telemetry, a monitor degrades to inert. *)
let test_monitor_disabled_inert () =
  let w = Common.make_reflex ~seed:5L () in
  let m =
    Monitor.create ~server:w.Common.server ~telemetry:Reflex_telemetry.Telemetry.disabled ()
  in
  Monitor.start m w.Common.sim ();
  Monitor.tick m ~now:(Time.ms 3);
  Alcotest.(check int) "no alert events" 0 (List.length (Monitor.events m));
  Alcotest.(check string) "empty prometheus" "" (Monitor.prometheus m);
  Alcotest.(check string) "disabled report" "== monitor disabled ==\n" (Monitor.report m)

(* ------------------------------------------------------------------ *)
(* End-to-end scenario (shared across checks; ~one chaos-sized run)   *)
(* ------------------------------------------------------------------ *)

let scenario = lazy (Monitor_exp.run ~mode:Common.Quick ~seed:7L ())

let test_scenario_alerts_in_fault_windows () =
  let r = Lazy.force scenario in
  Alcotest.(check bool) "alerts fired" true (Monitor_exp.alerts_fired r);
  Alcotest.(check bool) "all inside padded fault windows" true
    (Monitor_exp.alerts_in_windows r);
  Alcotest.(check bool) "every alert names its fault" true (Monitor_exp.alerts_named r)

let test_scenario_identity () =
  let r = Lazy.force scenario in
  Alcotest.(check bool) "enabled observer == none" true (Monitor_exp.observer_identical r);
  Alcotest.(check bool) "remediation applied" true (Monitor_exp.remediation_applied r)

(* Property: a fault-free scripted run fires zero alerts, across seeds. *)
let test_clean_runs_silent () =
  List.iter
    (fun seed ->
      let leg = Monitor_exp.run_clean ~mode:Common.Quick ~seed () in
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: zero alert events" seed)
        0
        (List.length (Monitor.events leg.Monitor_exp.monitor)))
    [ 3L; 19L; 1234L ]

(* Same-seed monitor reports must be byte-identical on rerun and serial
   vs --jobs 2; the pin table holds the same report across commits. *)
let test_parallel_determinism () =
  Rerun.check ~base:(Lazy.force Scenarios.monitor) Scenarios.monitor_render

let qcheck = QCheck_alcotest.to_alcotest

let prop_burn_rate_scales_linearly =
  QCheck.Test.make ~name:"burn rate is linear in the bad fraction" ~count:200
    QCheck.(pair (float_range 0.5 0.9999) (float_range 0.0 1.0))
    (fun (target, frac) ->
      let total = 1000.0 in
      let bad = frac *. total in
      let burn = Budget.burn_rate_of ~target ~good:(total -. bad) ~bad in
      abs_float (burn -. (frac /. (1.0 -. target))) < 1e-9)

let suite =
  [
    ( "budget",
      [
        Alcotest.test_case "burn-rate arithmetic" `Quick test_burn_rate_arithmetic;
        Alcotest.test_case "accounting" `Quick test_budget_accounting;
        Alcotest.test_case "validation" `Quick test_budget_validation;
        qcheck prop_burn_rate_scales_linearly;
      ] );
    ( "tsdb",
      [
        Alcotest.test_case "windowed sources" `Quick test_tsdb_windows;
        Alcotest.test_case "ring eviction" `Quick test_tsdb_ring_eviction;
        Alcotest.test_case "duplicates and disabled" `Quick test_tsdb_duplicate_and_disabled;
      ] );
    ( "alerts",
      [
        Alcotest.test_case "immediate fire/resolve" `Quick test_alerts_immediate;
        Alcotest.test_case "multi-window burn rule" `Quick test_alerts_burn_rule;
        Alcotest.test_case "deterministic order + annotation" `Quick
          test_alerts_deterministic_order_and_annotate;
      ] );
    ( "detect",
      [
        Alcotest.test_case "ewma z-score" `Quick test_ewma_zscore;
        Alcotest.test_case "knee predicate" `Quick test_knee_crossed;
      ] );
    ("prom", [ Alcotest.test_case "text exposition" `Quick test_prom_export ]);
    ( "remediate",
      [
        Alcotest.test_case "actions" `Quick test_remediate_actions;
        Alcotest.test_case "disabled monitor is inert" `Quick test_monitor_disabled_inert;
      ] );
    ( "scenario",
      [
        Alcotest.test_case "alerts land in fault windows" `Quick
          test_scenario_alerts_in_fault_windows;
        Alcotest.test_case "observer identity" `Quick test_scenario_identity;
        Alcotest.test_case "clean runs are silent" `Quick test_clean_runs_silent;
        Alcotest.test_case "serial vs --jobs 2 reports identical" `Quick
          test_parallel_determinism;
      ] );
  ]
