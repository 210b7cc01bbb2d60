(* Fault-injection & resilience subsystem (lib/faults): plan validation,
   deterministic retry backoff, injector lifecycle against real
   components, zero impact of an empty plan (and of telemetry), and
   byte-identical chaos output across reruns and domain-parallel
   execution. *)

open Reflex_engine
open Reflex_client
open Reflex_faults
module Common = Reflex_experiments.Common
module Chaos = Reflex_experiments.Chaos
module Identity = Reflex_experiments.Identity

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Fault plans                                                        *)
(* ------------------------------------------------------------------ *)

let test_plan_scripted_valid () =
  let plan = Fault_plan.validate (Fault_plan.scripted ()) in
  Alcotest.(check int) "three windows" 3 (List.length plan);
  let compressed = Fault_plan.scripted ~scale:0.1 () in
  List.iter2
    (fun (a : Fault_plan.window) (b : Fault_plan.window) ->
      Alcotest.(check int64) "start scales" (Time.scale a.at 0.1) b.at;
      Alcotest.(check int64) "duration scales" (Time.scale a.duration 0.1) b.duration)
    plan compressed;
  Alcotest.(check bool) "printable" true (String.length (Fault_plan.to_string plan) > 0)

let test_plan_validation_rejects () =
  let reject msg w =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fault_plan.validate [ w ]))
  in
  reject "Fault_plan: window 0: non-positive duration"
    { Fault_plan.at = Time.ms 1; duration = Time.zero; fault = Fault_plan.Link_flap };
  reject "Fault_plan: window 0: negative die"
    { Fault_plan.at = Time.ms 1; duration = Time.ms 1; fault = Fault_plan.Die_fail { die = -1 } };
  reject "Fault_plan: window 0: die slowdown < 1.0"
    {
      Fault_plan.at = Time.ms 1;
      duration = Time.ms 1;
      fault = Fault_plan.Die_slow { die = 0; factor = 0.5 };
    };
  reject "Fault_plan: window 0: loss prob"
    {
      Fault_plan.at = Time.ms 1;
      duration = Time.ms 1;
      fault = Fault_plan.Packet_loss { prob = 1.0; rto = Time.ms 1 };
    };
  reject "Fault_plan: window 0: burst factor"
    {
      Fault_plan.at = Time.ms 1;
      duration = Time.ms 1;
      fault = Fault_plan.Tenant_burst { gen = 0; factor = 0.0 };
    }

(* ------------------------------------------------------------------ *)
(* Retry backoff: deterministic and bounded                           *)
(* ------------------------------------------------------------------ *)

let prop_retry_backoff_deterministic_and_bounded =
  QCheck.Test.make ~name:"retry backoff deterministic for a seed, bounded by worst case"
    ~count:200
    QCheck.(triple int64 (int_range 1 8) (int_range 0 4))
    (fun (seed, max_retries, j10) ->
      let policy =
        Retry.validate
          {
            Retry.timeout = Time.ms 5;
            max_retries;
            backoff_base = Time.us 200;
            backoff_mult = 2.0;
            backoff_max = Time.ms 10;
            jitter = float_of_int j10 /. 10.0;
          }
      in
      let schedule () =
        let prng = Prng.create seed in
        List.init max_retries (fun i -> Retry.delay_for policy ~attempt:(i + 1) ~prng)
      in
      let a = schedule () and b = schedule () in
      let total =
        List.fold_left Time.add
          (Time.scale policy.Retry.timeout (float_of_int (max_retries + 1)))
          a
      in
      let cap = Time.scale policy.Retry.backoff_max (1.0 +. policy.Retry.jitter) in
      a = b
      && List.for_all (fun d -> Time.(d > Time.zero) && Time.(d <= cap)) a
      && Time.(total <= Retry.worst_case_total policy))

(* ------------------------------------------------------------------ *)
(* Injector lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

let test_injector_die_fail_repricing () =
  let telemetry = Reflex_telemetry.Telemetry.create () in
  let w = Common.make_reflex ~telemetry ~seed:11L () in
  let cp = Reflex_core.Server.control_plane w.Common.server in
  let dev = Reflex_core.Server.device w.Common.server in
  let plan =
    [
      {
        Fault_plan.at = Time.ms 1;
        duration = Time.ms 5;
        fault = Fault_plan.Die_fail { die = 0 };
      };
    ]
  in
  let tgt = Injector.target ~sim:w.Common.sim ~server:w.Common.server ~telemetry () in
  let inj = Injector.arm tgt ~plan in
  ignore (Sim.run ~until:(Time.ms 3) w.Common.sim);
  Alcotest.(check int) "active during window" 1 (Injector.active inj);
  Alcotest.(check int) "one die down" 1 (Reflex_flash.Nvme_model.failed_dies dev);
  Alcotest.(check bool) "capacity factor reduced" true
    (Reflex_core.Control_plane.capacity_factor cp < 1.0);
  ignore (Sim.run w.Common.sim);
  Alcotest.(check int) "injected" 1 (Injector.injected inj);
  Alcotest.(check int) "recovered" 1 (Injector.recovered inj);
  Alcotest.(check int) "no die down after recovery" 0 (Reflex_flash.Nvme_model.failed_dies dev);
  Alcotest.(check (float 1e-9)) "capacity factor restored" 1.0
    (Reflex_core.Control_plane.capacity_factor cp);
  (* Fault marks paired into one closed window; counters match. *)
  (match Reflex_telemetry.Telemetry.fault_windows telemetry with
  | [ (label, start, Some stop) ] ->
    Alcotest.(check string) "label" "die_fail(0)" label;
    Alcotest.(check int64) "start" (Time.ms 1) start;
    Alcotest.(check int64) "stop" (Time.ms 6) stop
  | _ -> Alcotest.fail "expected exactly one closed fault window");
  let cv name =
    int_of_float
      (Reflex_telemetry.Telemetry.counter_value
         (Reflex_telemetry.Telemetry.counter telemetry name))
  in
  Alcotest.(check int) "telemetry injected counter" 1 (cv "faults/injected");
  Alcotest.(check int) "telemetry recovered counter" 1 (cv "faults/recovered")

let test_injector_gc_storm_bursts () =
  let sim = Sim.create () in
  let dev =
    Reflex_flash.Nvme_model.create sim
      ~profile:Reflex_flash.Device_profile.device_a
      ~prng:(Prng.split (Sim.prng sim))
  in
  let plan =
    [
      {
        Fault_plan.at = Time.ms 1;
        duration = Time.ms 10;
        fault = Fault_plan.Gc_storm { bursts_per_die = 3 };
      };
    ]
  in
  let inj = Injector.arm (Injector.target ~sim ~device:dev ()) ~plan in
  ignore (Sim.run sim);
  Alcotest.(check int) "window ran" 1 (Injector.recovered inj);
  Alcotest.(check bool) "erase bursts queued" true
    (Reflex_flash.Nvme_model.gc_storm_bursts dev > 0)

let test_injector_missing_target_raises () =
  let sim = Sim.create () in
  let plan =
    [ { Fault_plan.at = Time.ms 1; duration = Time.ms 1; fault = Fault_plan.Link_flap } ]
  in
  Alcotest.check_raises "fabric fault without fabric target"
    (Invalid_argument "Injector: plan needs a fabric target") (fun () ->
      ignore (Injector.arm (Injector.target ~sim ()) ~plan))

(* ------------------------------------------------------------------ *)
(* Zero impact when no fault is armed                                 *)
(* ------------------------------------------------------------------ *)

let probe_world ?(telemetry = false) ~arm_empty () =
  let telemetry =
    if telemetry then Reflex_telemetry.Telemetry.create () else Reflex_telemetry.Telemetry.disabled
  in
  let w = Common.make_reflex ~telemetry ~seed:7L () in
  let sim = w.Common.sim in
  let client =
    Common.client_of w
      ~slo:(Common.lc_slo ~latency_us:500 ~iops:50_000 ~read_pct:100)
      ~tenant:1 ()
  in
  if arm_empty then
    ignore
      (Injector.arm
         (Injector.target ~sim ~fabric:w.Common.fabric ~server:w.Common.server ())
         ~plan:[]);
  let g =
    Load_gen.open_loop sim ~client ~pacing:`Poisson ~rate:20_000.0 ~read_ratio:0.9 ~bytes:4096
      ~until:(Time.ms 100) ~seed:3L ()
  in
  ignore (Sim.run sim);
  ( Load_gen.issued g,
    Load_gen.completed g,
    Load_gen.achieved_iops g,
    Load_gen.p95_read_us g,
    Load_gen.mean_read_us g )

let test_empty_plan_is_invisible () =
  (* Arming an injector with an empty plan must leave the run
     byte-identical to never creating one: same issue counts, same
     latencies, same PRNG draw sequence everywhere. *)
  let i0, c0, k0, p0, m0 = probe_world ~arm_empty:false () in
  let i1, c1, k1, p1, m1 = probe_world ~arm_empty:true () in
  Alcotest.(check int) "issued identical" i0 i1;
  Alcotest.(check int) "completed identical" c0 c1;
  Alcotest.(check (float 0.0)) "IOPS identical" k0 k1;
  Alcotest.(check (float 0.0)) "p95 identical" p0 p1;
  Alcotest.(check (float 0.0)) "mean identical" m0 m1;
  (* Telemetry observes, never perturbs: its span ring, counters and
     daemon sampler schedule nothing the simulation sees. *)
  let _, _, k2, p2, _ = probe_world ~telemetry:true ~arm_empty:false () in
  Alcotest.(check (float 0.0)) "telemetry-on IOPS identical" k0 k2;
  Alcotest.(check (float 0.0)) "telemetry-on p95 identical" p0 p2

(* ------------------------------------------------------------------ *)
(* Chaos scenario: determinism, SLO, bounded retries                  *)
(* ------------------------------------------------------------------ *)

let test_chaos_deterministic_and_resilient () =
  let r = Lazy.force Scenarios.chaos in
  List.iter (fun c -> Alcotest.(check bool) c.Identity.name true c.Identity.ok) (Chaos.checks r);
  Rerun.check ~base:(Chaos.render_result r) (fun () ->
      Chaos.render ~mode:Common.Quick ~seed:42L ());
  Alcotest.(check int) "all windows injected" 3 r.Chaos.injected;
  Alcotest.(check int) "all windows recovered" 3 r.Chaos.recovered;
  Alcotest.(check bool) "faults provoked retries" true (r.Chaos.retries > 0)

let suite =
  [
    ( "fault_plan",
      [
        Alcotest.test_case "scripted plan valid and scalable" `Quick test_plan_scripted_valid;
        Alcotest.test_case "validation rejects bad windows" `Quick test_plan_validation_rejects;
      ] );
    ("retry", [ qcheck prop_retry_backoff_deterministic_and_bounded ]);
    ( "injector",
      [
        Alcotest.test_case "die failure degrades and recovers" `Quick
          test_injector_die_fail_repricing;
        Alcotest.test_case "gc storm queues erase bursts" `Quick test_injector_gc_storm_bursts;
        Alcotest.test_case "missing target raises" `Quick test_injector_missing_target_raises;
        Alcotest.test_case "empty plan is invisible" `Quick test_empty_plan_is_invisible;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "deterministic, SLO-preserving, bounded retries" `Slow
          test_chaos_deterministic_and_resilient;
      ] );
  ]
