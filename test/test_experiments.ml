(* Regression tests over the experiment harness itself: run the cheap
   experiments end-to-end and assert the paper's qualitative claims hold
   (so a refactor that silently breaks a reproduction fails the suite). *)

open Reflex_engine
open Reflex_client
open Reflex_experiments

let find_row rows pred = match List.find_opt pred rows with
  | Some r -> r
  | None -> Alcotest.fail "expected row missing"

(* ------------------------------------------------------------------ *)
(* Parallel runner                                                    *)
(* ------------------------------------------------------------------ *)

let test_runner_ordered_merge () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "map merges in input order"
    (List.map (fun x -> x * x) xs)
    (Runner.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int))
    "concat_map merges in input order"
    (List.concat_map (fun x -> [ x; -x ]) xs)
    (Runner.concat_map ~jobs:3 (fun x -> [ x; -x ]) xs);
  Alcotest.(check (list int)) "empty input" [] (Runner.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "more jobs than points" [ 2 ] (Runner.map ~jobs:8 succ [ 1 ])

let test_runner_exception_propagates () =
  Alcotest.check_raises "worker exception re-raised at the call site" (Failure "boom")
    (fun () ->
      ignore (Runner.map ~jobs:4 (fun x -> if x = 37 then failwith "boom" else x)
                (List.init 64 Fun.id)))

(* One cheap sweep point: a fresh deterministically-seeded world, a short
   open-loop run, a handful of derived metrics. *)
let mini_point rate =
  let w = Common.make_reflex () in
  let sim = w.Common.sim in
  let client = Common.client_of w ~tenant:1 () in
  let until = Time.add (Sim.now sim) (Time.ms 80) in
  let gen =
    Load_gen.open_loop sim ~client ~rate ~read_ratio:0.8 ~bytes:4096 ~until ~seed:7L ()
  in
  Common.measure_generators sim [ gen ] ~warmup:(Time.ms 10) ~window:(Time.ms 50);
  (rate, Load_gen.achieved_iops gen, Load_gen.p95_read_us gen, Load_gen.mean_read_us gen)

let mini_table rows =
  let t =
    Reflex_stats.Table.create ~title:"runner determinism probe"
      ~columns:[ "rate"; "achieved"; "p95"; "mean" ]
  in
  List.iter
    (fun (r, a, p, m) ->
      Reflex_stats.Table.add_row t
        [
          Reflex_stats.Table.cell_f r;
          Reflex_stats.Table.cell_f ~decimals:6 a;
          Reflex_stats.Table.cell_f ~decimals:6 p;
          Reflex_stats.Table.cell_f ~decimals:6 m;
        ])
    rows;
  Reflex_stats.Table.render t

(* The tentpole guarantee: fanning sweep points across domains must
   produce tables byte-identical to a serial run.  Each point owns its
   world, so only the merge order could differ — and the runner merges by
   input index. *)
let test_runner_parallel_matches_serial () =
  let rates = [ 50e3; 100e3; 150e3; 200e3; 250e3; 300e3 ] in
  let serial = Runner.map ~jobs:1 mini_point rates in
  let parallel = Runner.map ~jobs:4 mini_point rates in
  List.iter2
    (fun (r1, a1, p1, m1) (r2, a2, p2, m2) ->
      Alcotest.(check (float 0.0)) "rate" r1 r2;
      Alcotest.(check (float 0.0)) "achieved IOPS bit-identical" a1 a2;
      Alcotest.(check (float 0.0)) "p95 bit-identical" p1 p2;
      Alcotest.(check (float 0.0)) "mean bit-identical" m1 m2)
    serial parallel;
  Alcotest.(check string) "rendered table cells identical" (mini_table serial)
    (mini_table parallel)

(* ------------------------------------------------------------------ *)
(* Identity: the acceptance checks and the rerun helper               *)
(* ------------------------------------------------------------------ *)

(* A render that counts its calls differs on every rerun: both identity
   legs must fail, and a failing check must make the exit code non-zero. *)
let test_identity_catches_nondeterminism () =
  let calls = Atomic.make 0 in
  let render () = string_of_int (Atomic.fetch_and_add calls 1) in
  let checks = Rerun.legs ~base:(render ()) render in
  Alcotest.(check (list (pair string bool)))
    "rerun and two-domain legs fail"
    [ ("same-seed rerun byte-identical", false); ("serial vs --jobs 2 byte-identical", false) ]
    (List.map (fun c -> (c.Identity.name, c.Identity.ok)) checks);
  Alcotest.(check int) "non-zero exit" 1 (Identity.exit_code checks)

let test_identity_all_pass () =
  let render () = "same bytes" in
  let checks = Identity.check "predicate holds" true :: Rerun.legs ~base:(render ()) render in
  Alcotest.(check bool) "all pass" true (Identity.all_ok checks);
  Alcotest.(check int) "zero exit" 0 (Identity.exit_code checks);
  Alcotest.(check string) "one PASS line per check"
    (Printf.sprintf "  %-44s PASS\n  %-44s PASS\n  %-44s PASS\n" "predicate holds"
       "same-seed rerun byte-identical" "serial vs --jobs 2 byte-identical")
    (Identity.lines checks)

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let test_table2_ordering () =
  let rows = Table2.run () in
  Alcotest.(check int) "six access paths" 6 (List.length rows);
  let read_of name = (find_row rows (fun r -> r.Table2.path = name)).Table2.read_avg_us in
  let local = read_of "Local (SPDK)" in
  let reflex_ix = read_of "ReFlex (IX)" in
  let reflex_linux = read_of "ReFlex (Linux)" in
  let libaio_ix = read_of "Libaio (IX)" in
  let iscsi = read_of "iSCSI" in
  (* Paper Table 2's ordering: local < ReFlex(IX) < ReFlex(Linux) ~
     Libaio(IX) < ... < iSCSI. *)
  Alcotest.(check bool) "local fastest" true (local < reflex_ix);
  Alcotest.(check bool) "reflex beats libaio" true (reflex_ix < libaio_ix);
  Alcotest.(check bool) "linux client slower than ix" true (reflex_ix < reflex_linux);
  Alcotest.(check bool) "iscsi slowest" true
    (iscsi > reflex_linux && iscsi > libaio_ix);
  (* The +21us headline: ReFlex(IX) adds 15-30us over local. *)
  let overhead = reflex_ix -. local in
  Alcotest.(check bool) (Printf.sprintf "ReFlex overhead %.0fus in [12,32]" overhead) true
    (overhead > 12.0 && overhead < 32.0)

(* ------------------------------------------------------------------ *)
(* Paper-claims ledger: quantitative claims with stated tolerances     *)
(* ------------------------------------------------------------------ *)

(* [sim] is within [tol] (a fraction) of the paper's value; the failure
   message names the claim, both values and the tolerance. *)
let check_claim claim ~paper ~sim ~tol =
  let err = abs_float (sim -. paper) /. paper in
  Alcotest.(check bool)
    (Printf.sprintf "%s: paper %g, simulated %g, tolerance %g%% (off by %.1f%%)" claim paper sim
       (100.0 *. tol) (100.0 *. err))
    true (err <= tol)

(* Figure 3: the calibrated write cost is 10/20/16 tokens on devices
   A/B/C, and a read on read-only device A costs half a token. *)
let test_fig3_claims () =
  let _, fits = Fig3.run () in
  let fit device = find_row fits (fun f -> f.Fig3.fdevice = device) in
  List.iter
    (fun (device, paper) ->
      check_claim
        (Printf.sprintf "Fig 3 C(write) device %s" device)
        ~paper ~sim:(fit device).Fig3.write_cost ~tol:0.15)
    [ ("A", 10.0); ("B", 20.0); ("C", 16.0) ];
  check_claim "Fig 3 C(read,100%) device A" ~paper:0.5 ~sim:(fit "A").Fig3.ro_read_cost ~tol:0.10

(* Figure 4: one ReFlex core serves ~850K 1KB read IOPS. *)
let test_fig4_claims () =
  let rows = Fig4.run () in
  let best =
    List.fold_left
      (fun acc r ->
        if r.Fig4.system = "ReFlex" && r.Fig4.threads = 1 then Float.max acc r.Fig4.achieved_kiops
        else acc)
      0.0 rows
  in
  check_claim "Fig 4 ReFlex one-core peak (KIOPS)" ~paper:850.0 ~sim:best ~tol:0.05

(* ------------------------------------------------------------------ *)
(* Figure 5                                                           *)
(* ------------------------------------------------------------------ *)

let test_fig5_claims () =
  let rows = Fig5.run () in
  let get ~scenario ~sched ~tenant_prefix =
    find_row rows (fun r ->
        r.Fig5.scenario = scenario && r.Fig5.sched = sched
        && String.length r.Fig5.tenant > 0
        && String.sub r.Fig5.tenant 0 1 = tenant_prefix)
  in
  (* Scenario 1, scheduler on: both LC tenants meet the 500us SLO at
     their reserved IOPS. *)
  let a_on = get ~scenario:1 ~sched:true ~tenant_prefix:"A" in
  let b_on = get ~scenario:1 ~sched:true ~tenant_prefix:"B" in
  Alcotest.(check bool) "A meets SLO" true (a_on.Fig5.p95_read_us <= 500.0);
  Alcotest.(check bool) "B meets SLO" true (b_on.Fig5.p95_read_us <= 500.0);
  Alcotest.(check bool) "A at reservation" true (a_on.Fig5.achieved_kiops > 115.0);
  Alcotest.(check bool) "B at reservation" true (b_on.Fig5.achieved_kiops > 66.0);
  (* Scheduler off: the LC SLO is violated. *)
  let a_off = get ~scenario:1 ~sched:false ~tenant_prefix:"A" in
  Alcotest.(check bool) "A violated without scheduler" true (a_off.Fig5.p95_read_us > 500.0);
  (* BE fairness: C (95% reads) gets several times D's IOPS (write cost). *)
  let c_on = get ~scenario:1 ~sched:true ~tenant_prefix:"C" in
  let d_on = get ~scenario:1 ~sched:true ~tenant_prefix:"D" in
  Alcotest.(check bool) "C >> D" true (c_on.Fig5.achieved_kiops > 3.0 *. d_on.Fig5.achieved_kiops);
  (* Scenario 2: B's unused reservation flows to the BE tenants. *)
  let c_s2 = get ~scenario:2 ~sched:true ~tenant_prefix:"C" in
  Alcotest.(check bool) "work conservation across scenarios" true
    (c_s2.Fig5.achieved_kiops > 1.2 *. c_on.Fig5.achieved_kiops)

(* ------------------------------------------------------------------ *)
(* Figure 6a                                                          *)
(* ------------------------------------------------------------------ *)

let test_fig6a_linear_scaling () =
  let rows = Fig6.run_cores () in
  let r1 = find_row rows (fun r -> r.Fig6.cores = 1) in
  let r12 = find_row rows (fun r -> r.Fig6.cores = 12) in
  Alcotest.(check bool) "LC scales ~12x" true
    (r12.Fig6.lc_kiops > 10.0 *. r1.Fig6.lc_kiops);
  Alcotest.(check bool) "BE shrinks" true (r12.Fig6.be_kiops < r1.Fig6.be_kiops);
  (* Token usage pinned at the 2ms ceiling at every scale. *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "tokens pinned (%d cores: %.0fK)" r.Fig6.cores r.Fig6.ktokens_per_sec)
        true
        (abs_float (r.Fig6.ktokens_per_sec -. r1.Fig6.ktokens_per_sec) < 20.0))
    rows;
  List.iter
    (fun r ->
      Alcotest.(check bool) "all LC under 2ms SLO" true (r.Fig6.lc_p95_worst_us < 2000.0))
    rows

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let test_ablation_cost_model () =
  let rows = Ablations.run_cost_model () in
  let calibrated = find_row rows (fun r -> r.Ablations.lc_slo_met) in
  let naive = find_row rows (fun r -> not r.Ablations.lc_slo_met) in
  Alcotest.(check bool) "naive pricing blows the LC tail" true
    (naive.Ablations.lc_p95_us > 1.5 *. calibrated.Ablations.lc_p95_us)

let test_ablation_donation () =
  let rows = Ablations.run_donation () in
  let at f = (find_row rows (fun r -> r.Ablations.fraction = f)).Ablations.be_kiops in
  Alcotest.(check bool) "donations feed best-effort tenants" true (at 0.9 > 1.3 *. at 0.0)

let test_ablation_batching () =
  let rows = Ablations.run_batching () in
  let at c = find_row rows (fun r -> r.Ablations.batch_cap = c) in
  Alcotest.(check bool) "no batching collapses throughput" true
    ((at 1).Ablations.achieved_kiops < 0.85 *. (at 64).Ablations.achieved_kiops);
  Alcotest.(check bool) "no batching inflates the tail" true
    ((at 1).Ablations.p95_us > 5.0 *. (at 64).Ablations.p95_us)

let suite =
  [
    ( "runner",
      [
        Alcotest.test_case "ordered merge" `Quick test_runner_ordered_merge;
        Alcotest.test_case "exception propagation" `Quick test_runner_exception_propagates;
        Alcotest.test_case "parallel = serial (bit-identical)" `Quick
          test_runner_parallel_matches_serial;
      ] );
    ( "identity",
      [
        Alcotest.test_case "nondeterministic render fails" `Quick
          test_identity_catches_nondeterminism;
        Alcotest.test_case "all-pass checks succeed" `Quick test_identity_all_pass;
      ] );
    ("table2", [ Alcotest.test_case "access-path ordering & +21us" `Slow test_table2_ordering ]);
    ("fig3", [ Alcotest.test_case "cost-model claims" `Slow test_fig3_claims ]);
    ("fig4", [ Alcotest.test_case "IOPS/core claim" `Slow test_fig4_claims ]);
    ("fig5", [ Alcotest.test_case "isolation claims" `Slow test_fig5_claims ]);
    ("fig6a", [ Alcotest.test_case "linear core scaling" `Slow test_fig6a_linear_scaling ]);
    ( "ablations",
      [
        Alcotest.test_case "cost model matters" `Slow test_ablation_cost_model;
        Alcotest.test_case "donation fraction matters" `Slow test_ablation_donation;
        Alcotest.test_case "batching matters" `Slow test_ablation_batching;
      ] );
  ]
