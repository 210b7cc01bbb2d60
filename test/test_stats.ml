(* Tests for the measurement toolkit. *)

open Reflex_stats

(* ------------------------------------------------------------------ *)
(* Hdr_histogram                                                      *)
(* ------------------------------------------------------------------ *)

let test_hdr_small_exact () =
  let h = Hdr_histogram.create () in
  List.iter (fun v -> Hdr_histogram.record h (Int64.of_int v)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "count" 5 (Hdr_histogram.count h);
  Alcotest.(check int64) "p0 = min" 1L (Hdr_histogram.percentile h 0.0);
  Alcotest.(check int64) "median" 3L (Hdr_histogram.percentile h 50.0);
  Alcotest.(check int64) "p100 = max" 5L (Hdr_histogram.percentile h 100.0);
  Alcotest.(check int64) "min" 1L (Hdr_histogram.min_value h);
  Alcotest.(check int64) "max" 5L (Hdr_histogram.max_value h)

let test_hdr_mean () =
  let h = Hdr_histogram.create () in
  Hdr_histogram.record_n h 100L 3;
  Hdr_histogram.record h 200L;
  Alcotest.(check (float 1e-9)) "mean" 125.0 (Hdr_histogram.mean h)

let test_hdr_relative_error () =
  (* Large values land in log buckets; relative error must stay under ~3%. *)
  let h = Hdr_histogram.create () in
  let v = 123_456_789L in
  Hdr_histogram.record h v;
  let p = Hdr_histogram.percentile h 50.0 in
  let err =
    Int64.to_float (Int64.sub p v) /. Int64.to_float v
  in
  Alcotest.(check bool)
    (Printf.sprintf "relative error %.4f within 3%%" err)
    true
    (err >= 0.0 && err <= 0.03)

let test_hdr_merge_reset () =
  let a = Hdr_histogram.create () and b = Hdr_histogram.create () in
  Hdr_histogram.record a 10L;
  Hdr_histogram.record b 20L;
  Hdr_histogram.merge ~dst:a ~src:b;
  Alcotest.(check int) "merged count" 2 (Hdr_histogram.count a);
  Alcotest.(check int64) "merged max" 20L (Hdr_histogram.max_value a);
  Hdr_histogram.reset a;
  Alcotest.(check int) "reset count" 0 (Hdr_histogram.count a)

let test_hdr_empty_defined () =
  let h = Hdr_histogram.create () in
  (* Empty histogram: every percentile is the defined value 0. *)
  List.iter
    (fun p -> Alcotest.(check int64) (Printf.sprintf "empty p%.0f" p) 0L (Hdr_histogram.percentile h p))
    [ 0.0; 50.0; 99.9; 100.0 ];
  Alcotest.check_raises "out-of-range p still raises"
    (Invalid_argument "Hdr_histogram.percentile: out of range") (fun () ->
      ignore (Hdr_histogram.percentile h 101.0))

let test_hdr_single_sample () =
  (* A single-sample histogram reports exactly that sample for every p,
     even when the value lands in a coarse log bucket. *)
  let h = Hdr_histogram.create () in
  let v = 123_456_789L in
  Hdr_histogram.record h v;
  List.iter
    (fun p -> Alcotest.(check int64) (Printf.sprintf "single p%.1f" p) v (Hdr_histogram.percentile h p))
    [ 0.0; 0.1; 50.0; 99.9; 100.0 ]

let hist_of values =
  let h = Hdr_histogram.create () in
  List.iter (fun v -> Hdr_histogram.record h (Int64.of_int v)) values;
  h

let check_hist_equal msg a b =
  Alcotest.(check int) (msg ^ ": count") (Hdr_histogram.count a) (Hdr_histogram.count b);
  Alcotest.(check int64) (msg ^ ": min") (Hdr_histogram.min_value a) (Hdr_histogram.min_value b);
  Alcotest.(check int64) (msg ^ ": max") (Hdr_histogram.max_value a) (Hdr_histogram.max_value b);
  List.iter
    (fun p ->
      Alcotest.(check int64)
        (Printf.sprintf "%s: p%.0f" msg p)
        (Hdr_histogram.percentile a p) (Hdr_histogram.percentile b p))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ]

let test_hdr_copy_independent () =
  let h = hist_of [ 10; 20 ] in
  let c = Hdr_histogram.copy h in
  Hdr_histogram.record h 30L;
  Alcotest.(check int) "copy unchanged" 2 (Hdr_histogram.count c);
  Alcotest.(check int) "original grew" 3 (Hdr_histogram.count h)

let test_hdr_diff_exact () =
  let h = hist_of [ 100; 100; 100 ] in
  let s = Hdr_histogram.copy h in
  Hdr_histogram.record h 100L;
  Hdr_histogram.record h 5000L;
  let d = Hdr_histogram.diff h ~since:s in
  Alcotest.(check int) "delta count" 2 (Hdr_histogram.count d);
  Alcotest.(check int) "delta above 100" 1 (Hdr_histogram.count_above d 100L);
  Alcotest.(check int64) "delta min" 100L (Hdr_histogram.min_value d);
  (* diff then add-back reconstructs the original exactly *)
  Hdr_histogram.merge ~dst:s ~src:d;
  check_hist_equal "diff+merge = id" h s

let test_hdr_diff_negative_raises () =
  let a = hist_of [ 10 ] and b = hist_of [ 10; 10 ] in
  Alcotest.check_raises "non-snapshot rejected"
    (Invalid_argument "Hdr_histogram.diff: since is not an earlier snapshot of this histogram")
    (fun () -> ignore (Hdr_histogram.diff a ~since:b))

let test_hdr_count_above () =
  let h = hist_of (List.init 100 (fun i -> i + 1)) in
  (* values 1..100 are exact (sub-bucket range or single-unit buckets) *)
  Alcotest.(check int) "above 50" 50 (Hdr_histogram.count_above h 50L);
  Alcotest.(check int) "negative threshold counts all" 100 (Hdr_histogram.count_above h (-1L));
  Alcotest.(check int) "above max" 0 (Hdr_histogram.count_above h 100L);
  (* monotone non-increasing in the threshold *)
  let prev = ref max_int in
  List.iter
    (fun v ->
      let c = Hdr_histogram.count_above h (Int64.of_int v) in
      Alcotest.(check bool) (Printf.sprintf "monotone at %d" v) true (c <= !prev);
      prev := c)
    [ 0; 10; 25; 50; 75; 99; 1000 ]

let sample_gen = QCheck.(list_of_size Gen.(int_range 0 300) (int_range 1 50_000_000))

let prop_hdr_merge_commutes =
  QCheck.Test.make ~name:"merge commutes" ~count:50 QCheck.(pair sample_gen sample_gen)
    (fun (a, b) ->
      let ab = hist_of a in
      Hdr_histogram.merge ~dst:ab ~src:(hist_of b);
      let ba = hist_of b in
      Hdr_histogram.merge ~dst:ba ~src:(hist_of a);
      Hdr_histogram.count ab = Hdr_histogram.count ba
      && Hdr_histogram.min_value ab = Hdr_histogram.min_value ba
      && Hdr_histogram.max_value ab = Hdr_histogram.max_value ba
      && List.for_all
           (fun p -> Hdr_histogram.percentile ab p = Hdr_histogram.percentile ba p)
           [ 0.0; 50.0; 95.0; 99.0; 100.0 ])

let prop_hdr_diff_add_id =
  QCheck.Test.make ~name:"diff conserves counts and add-back restores" ~count:50
    QCheck.(pair sample_gen sample_gen)
    (fun (a, b) ->
      let h = hist_of a in
      let s = Hdr_histogram.copy h in
      List.iter (fun v -> Hdr_histogram.record h (Int64.of_int v)) b;
      let d = Hdr_histogram.diff h ~since:s in
      let conserved =
        Hdr_histogram.count s + Hdr_histogram.count d = Hdr_histogram.count h
        && Hdr_histogram.count d = List.length b
      in
      Hdr_histogram.merge ~dst:s ~src:d;
      conserved
      && Hdr_histogram.count s = Hdr_histogram.count h
      && Hdr_histogram.min_value s = Hdr_histogram.min_value h
      && Hdr_histogram.max_value s = Hdr_histogram.max_value h
      && List.for_all
           (fun p -> Hdr_histogram.percentile s p = Hdr_histogram.percentile h p)
           [ 0.0; 50.0; 95.0; 99.0; 100.0 ])

let prop_hdr_vs_exact =
  QCheck.Test.make ~name:"hdr percentile within one bucket of exact" ~count:50
    QCheck.(list_of_size Gen.(int_range 100 2000) (int_range 1_000 100_000_000))
    (fun values ->
      let h = Hdr_histogram.create () in
      List.iter (fun v -> Hdr_histogram.record h (Int64.of_int v)) values;
      (* Compare at hdr's own rank convention — the ceil-rank-th smallest
         sample — so the only divergence left is bucket granularity
         (~1.6% with 6 sub-bucket bits).  Comparing against linear
         interpolation instead makes the error sample-spacing-dominated
         and flaky at these list sizes. *)
      let sorted = Array.of_list (List.sort compare (List.map float_of_int values)) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let approx = Int64.to_float (Hdr_histogram.percentile h p) in
          let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
          let exact = sorted.(max 0 (rank - 1)) in
          (* hdr reports the inclusive upper edge of the bucket holding
             the rank-th value, clamped into the observed range. *)
          approx >= exact && approx <= (exact *. 1.04) +. 2.0)
        [ 50.0; 90.0; 95.0; 99.0 ])

let prop_hdr_monotone =
  QCheck.Test.make ~name:"hdr percentiles are monotone in p" ~count:50
    QCheck.(list_of_size Gen.(int_range 10 500) (int_range 1 10_000_000))
    (fun values ->
      let h = Hdr_histogram.create () in
      List.iter (fun v -> Hdr_histogram.record h (Int64.of_int v)) values;
      let ps = [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 ] in
      let vals = List.map (Hdr_histogram.percentile h) ps in
      let rec monotone = function
        | a :: (b :: _ as rest) -> Int64.compare a b <= 0 && monotone rest
        | _ -> true
      in
      monotone vals)

(* [record] is [record_int] on the value as an int: the same values give
   the same count, extrema, mean and percentiles either way. *)
let prop_hdr_record_int_matches_record =
  QCheck.Test.make ~name:"hdr record_int matches record" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range 0 1_000_000_000))
    (fun values ->
      let a = Hdr_histogram.create () and b = Hdr_histogram.create () in
      List.iter (fun v -> Hdr_histogram.record a (Int64.of_int v)) values;
      List.iter (Hdr_histogram.record_int b) values;
      Hdr_histogram.count a = Hdr_histogram.count b
      && Hdr_histogram.min_value a = Hdr_histogram.min_value b
      && Hdr_histogram.max_value a = Hdr_histogram.max_value b
      && Hdr_histogram.mean a = Hdr_histogram.mean b
      && List.for_all
           (fun p -> Hdr_histogram.percentile a p = Hdr_histogram.percentile b p)
           [ 0.0; 50.0; 95.0; 99.9; 100.0 ])

(* ------------------------------------------------------------------ *)
(* Linear_fit                                                         *)
(* ------------------------------------------------------------------ *)

let test_fit_exact_line () =
  let pts = [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ] in
  let f = Linear_fit.fit pts in
  Alcotest.(check (float 1e-9)) "slope" 2.0 f.slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 f.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1.0 f.r2

let test_fit_degenerate () =
  Alcotest.check_raises "single point" (Invalid_argument "Linear_fit.fit: need at least 2 points")
    (fun () -> ignore (Linear_fit.fit [ (1.0, 1.0) ]))

let prop_fit_recovers_line =
  QCheck.Test.make ~name:"fit recovers noiseless line" ~count:100
    QCheck.(triple (float_range (-10.0) 10.0) (float_range (-10.0) 10.0) (int_range 3 30))
    (fun (a, b, n) ->
      let pts = List.init n (fun i -> (float_of_int i, a +. (b *. float_of_int i))) in
      let f = Linear_fit.fit pts in
      abs_float (f.slope -. b) < 1e-6 && abs_float (f.intercept -. a) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s
    |> List.exists (fun l -> String.length l >= 8 && String.sub l 0 8 = "alpha  1"));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: 1 cells for 2 columns") (fun () ->
      Table.add_row t [ "x" ])

(* Recording allocates nothing: exactly 0 words over 10,000 records
   through each of [record] and [record_int], the values spread over
   the linear region and the log buckets.  [record]'s values are boxed
   up front, as a caller's [Time.t] is.  Run under both build profiles
   ([make alloc-gate] runs it alone in release). *)
let test_hdr_record_allocation_free () =
  let h = Hdr_histogram.create () in
  let ints = Array.init 64 (fun i -> (i * i * 7919) + i) in
  let values = Array.map Int64.of_int ints in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Hdr_histogram.record h values.(i land 63)
  done;
  let words = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Hdr_histogram.record_int h ints.(i land 63)
  done;
  let int_words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every value recorded" 20_000 (Hdr_histogram.count h);
  Alcotest.(check (float 0.0)) "record words" 0.0 words;
  Alcotest.(check (float 0.0)) "record_int words" 0.0 int_words

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "hdr_histogram",
      [
        Alcotest.test_case "small values exact" `Quick test_hdr_small_exact;
        Alcotest.test_case "mean" `Quick test_hdr_mean;
        Alcotest.test_case "bounded relative error" `Quick test_hdr_relative_error;
        Alcotest.test_case "merge and reset" `Quick test_hdr_merge_reset;
        Alcotest.test_case "empty is defined" `Quick test_hdr_empty_defined;
        Alcotest.test_case "single sample exact" `Quick test_hdr_single_sample;
        Alcotest.test_case "copy is independent" `Quick test_hdr_copy_independent;
        Alcotest.test_case "diff is the exact delta" `Quick test_hdr_diff_exact;
        Alcotest.test_case "diff rejects non-snapshots" `Quick test_hdr_diff_negative_raises;
        Alcotest.test_case "count_above" `Quick test_hdr_count_above;
        qcheck prop_hdr_merge_commutes;
        qcheck prop_hdr_diff_add_id;
        qcheck prop_hdr_vs_exact;
        qcheck prop_hdr_monotone;
        qcheck prop_hdr_record_int_matches_record;
      ] );
    ( "linear_fit",
      [
        Alcotest.test_case "exact line" `Quick test_fit_exact_line;
        Alcotest.test_case "degenerate input" `Quick test_fit_degenerate;
        qcheck prop_fit_recovers_line;
      ] );
    ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
    ("alloc", [ Alcotest.test_case "record allocation-free" `Quick test_hdr_record_allocation_free ]);
  ]
