(* Regression tests over the experiment harness itself: run the cheap
   experiments end-to-end and assert that every acceptance row they
   return passes (so a refactor that silently breaks a reproduction fails
   the suite). *)

open Reflex_engine
open Reflex_client
open Reflex_experiments

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
   legs must fail, and a failing check must make the exit code non-zero.
   So must a paper claim just past its tolerance, whose FAIL line names
   both values. *)
let test_identity_catches_nondeterminism () =
  let calls = Atomic.make 0 in
  let render () = string_of_int (Atomic.fetch_and_add calls 1) in
  let checks = Rerun.legs ~base:(render ()) render in
  Alcotest.(check (list (pair string bool)))
    "rerun and two-domain legs fail"
    [ ("same-seed rerun byte-identical", false); ("serial vs --jobs 2 byte-identical", false) ]
    (List.map (fun c -> (c.Identity.name, c.Identity.ok)) checks);
  Alcotest.(check int) "non-zero exit" 1 (Identity.exit_code checks);
  let miss = Identity.within "claim" ~paper:100.0 ~sim:110.001 ~tol:0.10 in
  Alcotest.(check string) "claim just past its tolerance: a FAIL line naming both values"
    "  claim: paper 100, simulated 110.001, tolerance 10% (off by 10.0%) FAIL\n"
    (Identity.lines [ miss ]);
  Alcotest.(check int) "one failing claim fails the exit code" 1
    (Identity.exit_code [ Identity.check "predicate holds" true; miss ])

(* A claim exactly at its tolerance passes: the bound is inclusive. *)
let test_identity_all_pass () =
  let render () = "same bytes" in
  let checks =
    Identity.check "predicate holds" true
    :: Identity.within "claim" ~paper:100.0 ~sim:90.0 ~tol:0.10
    :: Rerun.legs ~base:(render ()) render
  in
  Alcotest.(check bool) "all pass" true (Identity.all_ok checks);
  Alcotest.(check int) "zero exit" 0 (Identity.exit_code checks);
  Alcotest.(check string) "one PASS line per check"
    (Printf.sprintf "  %-44s PASS\n  %-44s PASS\n  %-44s PASS\n  %-44s PASS\n"
       "predicate holds" "claim: paper 100, simulated 90, tolerance 10% (off by 10.0%)"
       "same-seed rerun byte-identical" "serial vs --jobs 2 byte-identical")
    (Identity.lines checks)

(* ------------------------------------------------------------------ *)
(* Paper figures: every acceptance row [reflex_sim run] prints passes   *)
(* ------------------------------------------------------------------ *)

(* One assertion per acceptance row, named by the row (a claim's name
   carries both values, the tolerance and the error); the count guards
   against a row going missing.  Tier-1 runs quick mode. *)
let rows_case name ~expect checks run =
  Alcotest.test_case name `Slow (fun () ->
      let rows = checks (run ()) in
      Alcotest.(check int) "acceptance rows" expect (List.length rows);
      List.iter (fun c -> Alcotest.(check bool) c.Identity.name true c.Identity.ok) rows)

(* One Table 2 run, shared by the ordering case and the per-cell claims:
   the cell rows are the ones named "Table 2 ...". *)
let table2_rows = lazy (Table2.checks (Table2.run ()))
let table2 () = Lazy.force table2_rows
let cells want = List.filter (fun c -> String.starts_with ~prefix:"Table 2 " c.Identity.name = want)

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
    ( "table2",
      [
        rows_case "access-path ordering & +21us" ~expect:6 (cells false) table2;
        rows_case "local and ReFlex (IX) cells" ~expect:8 (cells true) table2;
      ] );
    ("fig3", [ rows_case "cost-model claims" ~expect:4 Fig3.checks Fig3.run ]);
    ("fig4", [ rows_case "IOPS/core claim" ~expect:1 Fig4.checks Fig4.run ]);
    ("fig5", [ rows_case "isolation claims" ~expect:7 Fig5.checks Fig5.run ]);
    (* Two scaling rows, then a token row and an SLO row for each of the
       five core counts. *)
    ("fig6a", [ rows_case "linear core scaling" ~expect:12 Fig6.cores_checks Fig6.run_cores ]);
    ( "ablations",
      Ablations.
        [
          rows_case "cost model matters" ~expect:1 cost_model_checks run_cost_model;
          rows_case "donation fraction matters" ~expect:1 donation_checks run_donation;
          rows_case "batching matters" ~expect:2 batching_checks run_batching;
        ] );
  ]
