(* Tests for the observability stack (lib/obs): the always-on flight
   recorder ring, snapshot windowing, the intern table, the cost
   profiler's accounting, the trace writer's integer µs formatter, and
   the end-to-end alert-triggered forensic dump determinism exercised
   through Obs_exp. *)

open Reflex_engine
open Reflex_obs

(* ------------------------------------------------------------------ *)
(* Flight: ring arithmetic                                            *)
(* ------------------------------------------------------------------ *)

(* Drain the retained window into a list of (time, kind, a, b, v). *)
let records fl =
  let acc = ref [] in
  Flight.iter fl (fun ~time ~kind ~a ~b ~v -> acc := (time, kind, a, b, v) :: !acc);
  List.rev !acc

let put fl i =
  Flight.record fl ~now:(Time.us i) ~kind:Flight.Kind.Grant ~a:i ~b:(2 * i) ~v:(float_of_int i)

let test_ring_wraparound () =
  let cap = 8 in
  let fl = Flight.create ~capacity:cap () in
  Alcotest.(check int) "capacity" cap (Flight.capacity fl);
  (* Fill to EXACTLY capacity: everything retained, nothing dropped. *)
  for i = 1 to cap do
    put fl i
  done;
  Alcotest.(check int) "full: total" cap (Flight.total fl);
  Alcotest.(check int) "full: retained" cap (Flight.retained fl);
  Alcotest.(check int) "full: dropped" 0 (Flight.dropped fl);
  Alcotest.(check (list int)) "full: oldest-first"
    (List.init cap (fun i -> i + 1))
    (List.map (fun (_, _, a, _, _) -> a) (records fl));
  (* One more record wraps: the oldest is overwritten, count is stable. *)
  put fl (cap + 1);
  Alcotest.(check int) "wrap: total" (cap + 1) (Flight.total fl);
  Alcotest.(check int) "wrap: retained" cap (Flight.retained fl);
  Alcotest.(check int) "wrap: dropped" 1 (Flight.dropped fl);
  Alcotest.(check (list int)) "wrap: window slid by one"
    (List.init cap (fun i -> i + 2))
    (List.map (fun (_, _, a, _, _) -> a) (records fl));
  (* Many laps later the invariants still hold. *)
  for i = cap + 2 to 10 * cap do
    put fl i
  done;
  Alcotest.(check int) "laps: retained" cap (Flight.retained fl);
  Alcotest.(check int) "laps: dropped" ((10 * cap) - cap) (Flight.dropped fl);
  match records fl with
  | (t, k, a, b, v) :: _ ->
    Alcotest.(check int) "laps: head a" ((10 * cap) - cap + 1) a;
    Alcotest.(check int) "laps: head b" (2 * a) b;
    Alcotest.(check (float 0.0)) "laps: head v" (float_of_int a) v;
    Alcotest.(check bool) "laps: head time" true (t = Time.us a);
    Alcotest.(check bool) "laps: head kind" true (k = Flight.Kind.Grant)
  | [] -> Alcotest.fail "empty ring after laps"

let test_snapshot_window () =
  let fl = Flight.create ~capacity:64 () in
  for i = 1 to 10 do
    put fl i (* records at 1..10 us *)
  done;
  (* window [now - window, now] is boundary-INCLUSIVE at the old edge:
     now=10us window=5us keeps 5..10us, six records. *)
  let snap = Flight.snapshot fl ~now:(Time.us 10) ~window:(Time.us 5) in
  Alcotest.(check int) "boundary inclusive" 6 (Flight.snap_length snap);
  Alcotest.(check bool) "oldest kept is the boundary" true (snap.Flight.s_times.(0) = Time.us 5);
  Alcotest.(check int) "snap_total" 10 snap.Flight.snap_total;
  (* One nanosecond less of window excludes the boundary record. *)
  let snap' =
    Flight.snapshot fl ~now:(Time.us 10) ~window:(Time.ns ((5 * 1000) - 1))
  in
  Alcotest.(check int) "just-inside window" 5 (Flight.snap_length snap');
  (* A window wider than history keeps everything retained. *)
  let all = Flight.snapshot fl ~now:(Time.us 10) ~window:(Time.sec 1) in
  Alcotest.(check int) "wide window keeps all" 10 (Flight.snap_length all)

let test_disabled () =
  let fl = Flight.disabled in
  Alcotest.(check bool) "disabled" false (Flight.enabled fl);
  put fl 1;
  Alcotest.(check int) "no records" 0 (Flight.total fl);
  Alcotest.(check int) "intern -1" (-1) (Flight.intern fl "x");
  let snap = Flight.snapshot fl ~now:(Time.us 10) ~window:(Time.sec 1) in
  Alcotest.(check int) "empty snapshot" 0 (Flight.snap_length snap)

let test_intern_labels () =
  let fl = Flight.create () in
  let a = Flight.intern fl "alert/p95" in
  let b = Flight.intern fl "fault/slow_flash" in
  Alcotest.(check int) "first-use order" (a + 1) b;
  Alcotest.(check int) "stable on re-intern" a (Flight.intern fl "alert/p95");
  Alcotest.(check string) "label round-trip" "fault/slow_flash" (Flight.label fl b);
  Alcotest.(check string) "unknown id" "?" (Flight.label fl 999);
  (* The intern table survives into snapshots. *)
  let snap = Flight.snapshot fl ~now:Time.zero ~window:Time.zero in
  Alcotest.(check string) "snapshot labels" "alert/p95" snap.Flight.s_labels.(a)

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Flight.Kind.name k ^ " roundtrips")
        true
        (Flight.Kind.of_int (Flight.Kind.to_int k) = k))
    [
      Flight.Kind.Refill; Flight.Kind.Grant; Flight.Kind.Throttle; Flight.Kind.Deficit;
      Flight.Kind.Donate; Flight.Kind.Bucket_take; Flight.Kind.Bucket_reset;
      Flight.Kind.Idle_drain; Flight.Kind.Queue_depth; Flight.Kind.Demote;
      Flight.Kind.Fault_on; Flight.Kind.Fault_off; Flight.Kind.Alert_fire;
      Flight.Kind.Alert_resolve; Flight.Kind.Remediate; Flight.Kind.Mark;
      Flight.Kind.Migrate; Flight.Kind.Balance;
    ]

(* ------------------------------------------------------------------ *)
(* Profiler accounting                                                *)
(* ------------------------------------------------------------------ *)

let test_profiler_accounting () =
  let p = Profiler.create () in
  Alcotest.(check bool) "enabled" true (Profiler.enabled p);
  Profiler.enter p Profiler.Subsystem.Qos;
  Profiler.leave p Profiler.Subsystem.Qos;
  Alcotest.(check int) "one scope" 1 (Profiler.calls p Profiler.Subsystem.Qos);
  Alcotest.(check bool) "wall accumulated" true (Profiler.wall_s p Profiler.Subsystem.Qos >= 0.0);
  Alcotest.(check int) "other subsystems untouched" 0 (Profiler.calls p Profiler.Subsystem.Net);
  (* shares: one row per subsystem, shares sum to ~1 when anything ran. *)
  let rows = Profiler.shares p in
  Alcotest.(check int) "one row per subsystem" Profiler.Subsystem.count (List.length rows);
  let total = List.fold_left (fun acc (_, _, share, _) -> acc +. share) 0.0 rows in
  Alcotest.(check bool) "shares normalised" true (total <= 1.0 +. 1e-9);
  (* the disabled instance is a no-op sink. *)
  Profiler.enter Profiler.disabled Profiler.Subsystem.Qos;
  Profiler.leave Profiler.disabled Profiler.Subsystem.Qos;
  Alcotest.(check int) "disabled records nothing" 0
    (Profiler.calls Profiler.disabled Profiler.Subsystem.Qos)

(* ------------------------------------------------------------------ *)
(* Trace_event.us: exact integer µs                                   *)
(* ------------------------------------------------------------------ *)

let float_us t = Printf.sprintf "%.3f" (Time.to_float_us t)
let below_2_50 = (1 lsl 50) - 1

let test_us_edges () =
  List.iter
    (fun ns ->
      Alcotest.(check string) (string_of_int ns) (float_us (Time.ns ns)) (Trace_event.us (Time.ns ns)))
    [ 0; 1; 999; 1000; 1001; -1; -999; -1000; -1001; below_2_50; -below_2_50 ]

(* Magnitudes spread over every bit width up to 2^50, so small, sub-µs
   and near-limit values all turn up. *)
let prop_us_matches_float =
  let gen =
    QCheck.Gen.(int_range 0 50 >>= fun k -> int_range (-((1 lsl k) - 1)) ((1 lsl k) - 1))
  in
  QCheck.Test.make ~name:"us = %.3f of to_float_us for |ns| < 2^50" ~count:5000
    (QCheck.make ~print:string_of_int gen)
    (fun ns -> Trace_event.us (Time.ns ns) = float_us (Time.ns ns))

(* ------------------------------------------------------------------ *)
(* End-to-end: alert-triggered dumps through Obs_exp                  *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_obs_scenario () =
  let open Reflex_experiments in
  let r = Lazy.force Scenarios.obs in
  Alcotest.(check bool) "an alert-triggered dump fired" true (Obs_exp.dump_captured r);
  Alcotest.(check bool) "dump names its firing alert" true (Obs_exp.dump_names_alert r);
  Alcotest.(check bool) "dump names an active fault window" true (Obs_exp.dump_names_fault r);
  Alcotest.(check bool) "causal retry links recorded" true (Obs_exp.links_recorded r);
  (match Obs_exp.first_chrome r with
  | None -> Alcotest.fail "no Chrome trace for the first dump"
  | Some j ->
    Alcotest.(check bool) "chrome trace has events" true (contains j "\"traceEvents\""));
  (* The armed recorder observes but never perturbs: same world with the
     recorder absent produces the identical result digest. *)
  let bare = Obs_exp.run ~flight:false () in
  Alcotest.(check string) "armed recorder does not perturb" bare.Obs_exp.digest
    r.Obs_exp.digest

(* The render and the first dump's whole JSON debrief are byte-identical
   across a same-seed rerun and serial vs --jobs 2, and the render ends
   with its verdict. *)
let test_obs_dump_determinism () =
  let open Reflex_experiments in
  let base = Scenarios.obs_with_dump (Lazy.force Scenarios.obs) in
  Rerun.check ~base (fun () -> Scenarios.obs_with_dump (Obs_exp.run ()));
  Alcotest.(check bool) "render verdict" true
    (contains (Obs_exp.render_result (Lazy.force Scenarios.obs)) "OBS OK\n")

let suite =
  [
    ( "flight",
      [
        Alcotest.test_case "ring wraparound at exact capacity" `Quick test_ring_wraparound;
        Alcotest.test_case "snapshot window boundary" `Quick test_snapshot_window;
        Alcotest.test_case "disabled recorder" `Quick test_disabled;
        Alcotest.test_case "intern table" `Quick test_intern_labels;
        Alcotest.test_case "kind roundtrip" `Quick test_kind_roundtrip;
      ] );
    ( "profiler",
      [ Alcotest.test_case "scope accounting" `Quick test_profiler_accounting ] );
    ( "trace_event",
      [
        Alcotest.test_case "us edge cases" `Quick test_us_edges;
        QCheck_alcotest.to_alcotest prop_us_matches_float;
      ] );
    ( "dump",
      [
        Alcotest.test_case "alert-triggered forensic dump" `Quick test_obs_scenario;
        Alcotest.test_case "dump determinism (rerun, jobs)" `Slow
          test_obs_dump_determinism;
      ] );
  ]
