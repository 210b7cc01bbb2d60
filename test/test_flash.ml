(* Tests for the simulated NVMe Flash substrate. *)

open Reflex_engine
open Reflex_flash

let fast_config =
  { Calibrate.duration = Time.ms 150; warmup = Time.ms 50; seed = 0xF1A5_7E57L }

(* ------------------------------------------------------------------ *)
(* Io_op                                                              *)
(* ------------------------------------------------------------------ *)

let test_sectors () =
  Alcotest.(check int) "1KB costs like 4KB" 1 (Io_op.sectors_of_bytes 1024);
  Alcotest.(check int) "4KB" 1 (Io_op.sectors_of_bytes 4096);
  Alcotest.(check int) "4KB+1 rounds up" 2 (Io_op.sectors_of_bytes 4097);
  Alcotest.(check int) "32KB = 8 sectors" 8 (Io_op.sectors_of_bytes 32768);
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Io_op.sectors_of_bytes: non-positive size") (fun () ->
      ignore (Io_op.sectors_of_bytes 0))

(* ------------------------------------------------------------------ *)
(* Device_profile                                                     *)
(* ------------------------------------------------------------------ *)

let test_profiles () =
  Alcotest.(check int) "three profiles" 3 (List.length Device_profile.all);
  (match Device_profile.by_name "a" with
  | Some p -> Alcotest.(check string) "lookup case-insensitive" "A" p.Device_profile.name
  | None -> Alcotest.fail "device A not found");
  Alcotest.(check bool) "unknown device" true (Device_profile.by_name "Z" = None);
  (* Paper-calibrated operating points. *)
  let a = Device_profile.device_a in
  Alcotest.(check bool) "device A ~1M+ read-only IOPS" true
    (Device_profile.read_only_iops a > 0.9e6);
  Alcotest.(check bool) "device A ~550K tokens/s" true
    (abs_float (Device_profile.token_capacity a -. 550e3) < 50e3);
  Alcotest.(check (float 1e-9)) "write cost A" 10.0 a.Device_profile.write_cost;
  Alcotest.(check (float 1e-9)) "write cost B" 20.0 Device_profile.device_b.Device_profile.write_cost;
  Alcotest.(check (float 1e-9)) "write cost C" 16.0 Device_profile.device_c.Device_profile.write_cost

(* ------------------------------------------------------------------ *)
(* Nvme_model                                                         *)
(* ------------------------------------------------------------------ *)

let make_dev ?(profile = Device_profile.device_a) () =
  let sim = Sim.create () in
  let dev = Nvme_model.create sim ~profile ~prng:(Prng.split (Sim.prng sim)) in
  (sim, dev)

(* Sequential queue-depth-1 probes of one I/O kind; returns (mean, p95)
   us, the p95 interpolated linearly between the two nearest ranks. *)
let probe_qd1 sim dev ~kind ~bytes ~count =
  let latencies = ref [] in
  let remaining = ref count in
  let rec next () =
    if !remaining > 0 then begin
      decr remaining;
      Nvme_model.submit dev ~kind ~bytes (fun ~latency ->
          latencies := Time.to_float_us latency :: !latencies;
          ignore (Sim.after sim (Time.us 100) next))
    end
  in
  ignore (Sim.at sim (Sim.now sim) next);
  ignore (Sim.run sim);
  let samples = Array.of_list (List.rev !latencies) in
  let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int count in
  Array.sort compare samples;
  let rank = 0.95 *. float_of_int (count - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. float_of_int lo in
  (mean, (samples.(lo) *. (1.0 -. frac)) +. (samples.(hi) *. frac))

let test_unloaded_read_latency () =
  let sim, dev = make_dev () in
  let mean, p95 = probe_qd1 sim dev ~kind:Io_op.Read ~bytes:4096 ~count:2000 in
  (* Table 2, local SPDK row: 78us avg / 90us p95 (4KB random read). *)
  Alcotest.(check bool) (Printf.sprintf "mean %.1f in [70,86]" mean) true (mean > 70.0 && mean < 86.0);
  Alcotest.(check bool) (Printf.sprintf "p95 %.1f in [82,100]" p95) true (p95 > 82.0 && p95 < 100.0)

let test_unloaded_write_latency () =
  let sim, dev = make_dev () in
  let mean, p95 = probe_qd1 sim dev ~kind:Io_op.Write ~bytes:4096 ~count:2000 in
  (* Table 2, local SPDK row: 11us avg / 17us p95 (DRAM-buffered). *)
  Alcotest.(check bool) (Printf.sprintf "mean %.1f in [8,14]" mean) true (mean > 8.0 && mean < 14.0);
  Alcotest.(check bool) (Printf.sprintf "p95 %.1f in [13,22]" p95) true (p95 > 13.0 && p95 < 22.0)

let test_large_reads_cost_more () =
  let sim, dev = make_dev () in
  let mean_4k, _ = probe_qd1 sim dev ~kind:Io_op.Read ~bytes:4096 ~count:300 in
  let sim2, dev2 = make_dev () in
  let mean_32k, _ = probe_qd1 sim2 dev2 ~kind:Io_op.Read ~bytes:32768 ~count:300 in
  Alcotest.(check bool)
    (Printf.sprintf "32KB (%.0fus) slower than 4KB (%.0fus)" mean_32k mean_4k)
    true
    (mean_32k > mean_4k *. 2.0)

let test_small_reads_cost_constant () =
  let sim, dev = make_dev () in
  let mean_1k, _ = probe_qd1 sim dev ~kind:Io_op.Read ~bytes:1024 ~count:500 in
  let sim2, dev2 = make_dev () in
  let mean_4k, _ = probe_qd1 sim2 dev2 ~kind:Io_op.Read ~bytes:4096 ~count:500 in
  Alcotest.(check bool) "1KB ~ 4KB latency" true (abs_float (mean_1k -. mean_4k) < 5.0)

let test_read_only_mode_window () =
  let sim, dev = make_dev () in
  Alcotest.(check bool) "starts read-only" true (Nvme_model.read_only_mode dev);
  Nvme_model.submit dev ~kind:Io_op.Write ~bytes:4096 (fun ~latency:_ -> ());
  Alcotest.(check bool) "write leaves read-only mode" false (Nvme_model.read_only_mode dev);
  ignore (Sim.run sim);
  (* Past the ro_window with no further writes, the fast path returns. *)
  ignore (Sim.at sim (Time.add (Sim.now sim) (Time.ms 2)) (fun () -> ()));
  ignore (Sim.run sim);
  Alcotest.(check bool) "read-only restored after window" true (Nvme_model.read_only_mode dev)

let test_write_buffer_bounded () =
  let sim, dev = make_dev () in
  let slots = Device_profile.device_a.Device_profile.write_buffer_slots in
  let acked = ref 0 in
  (* Flood far beyond the buffer in zero time. *)
  for _ = 1 to 4 * slots do
    Nvme_model.submit dev ~kind:Io_op.Write ~bytes:4096 (fun ~latency:_ -> incr acked)
  done;
  Alcotest.(check bool) "occupancy capped" true (Nvme_model.write_buffer_used dev <= slots);
  ignore (Sim.run sim);
  Alcotest.(check int) "all writes eventually ack" (4 * slots) !acked;
  Alcotest.(check int) "buffer drains" 0 (Nvme_model.write_buffer_used dev)

let test_interference_raises_read_tail () =
  (* Fixed read load; adding writes must raise the read tail (Figure 1). *)
  let p95_with_writes write_rate =
    let pt =
      Calibrate.measure ~config:fast_config Device_profile.device_a
        ~read_ratio:(100_000.0 /. (100_000.0 +. write_rate))
        ~bytes:4096
        ~rate:(100_000.0 +. write_rate)
    in
    pt.Calibrate.p95_read_us
  in
  let p0 = p95_with_writes 0.0 in
  let p20 = p95_with_writes 20_000.0 in
  let p60 = p95_with_writes 60_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p95 %.0f < %.0f < %.0f" p0 p20 p60)
    true
    (p0 < p20 && p20 < p60 && p60 > 2.0 *. p0)

let test_hockey_stick () =
  (* Read-only load: modest latency at 800K IOPS, blow-up past device
     capacity (~1.1M). *)
  let p95 rate =
    (Calibrate.measure ~config:fast_config Device_profile.device_a ~read_ratio:1.0 ~bytes:4096
       ~rate)
      .Calibrate.p95_read_us
  in
  let low = p95 400_000.0 and mid = p95 900_000.0 and over = p95 1_200_000.0 in
  Alcotest.(check bool) (Printf.sprintf "low load flat: %.0fus" low) true (low < 150.0);
  Alcotest.(check bool) (Printf.sprintf "near capacity rises: %.0fus" mid) true (mid < 1_000.0);
  Alcotest.(check bool) (Printf.sprintf "overload explodes: %.0fus" over) true (over > 5_000.0)

let test_wear_slows_device () =
  (* An aged device (paper §3.2.1: recalibrate for wear-out) serves the
     same load with higher latency and a lower SLO-constrained rate. *)
  let worn = Device_profile.with_wear Device_profile.device_a ~wear:1.5 in
  let fresh_pt =
    Calibrate.measure ~config:fast_config Device_profile.device_a ~read_ratio:1.0 ~bytes:4096
      ~rate:400_000.0
  in
  let worn_pt = Calibrate.measure ~config:fast_config worn ~read_ratio:1.0 ~bytes:4096 ~rate:400_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "worn slower (%.0f > %.0f)" worn_pt.Calibrate.p95_read_us
       fresh_pt.Calibrate.p95_read_us)
    true
    (worn_pt.Calibrate.p95_read_us > 1.2 *. fresh_pt.Calibrate.p95_read_us);
  Alcotest.check_raises "wear below 1 rejected"
    (Invalid_argument "Device_profile.with_wear: wear < 1.0") (fun () ->
      ignore (Device_profile.with_wear Device_profile.device_a ~wear:0.5))

let test_wear_recalibration () =
  (* Re-running the §3.2.1 calibration on the worn device yields a lower
     sustainable token rate for the control plane to use. *)
  let worn = Device_profile.with_wear Device_profile.device_a ~wear:1.5 in
  let fresh = Calibrate.max_token_rate ~config:fast_config Device_profile.device_a ~p95_target_us:1000.0 in
  let aged = Calibrate.max_token_rate ~config:fast_config worn ~p95_target_us:1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "recalibrated rate lower (%.0fK < %.0fK)" (aged /. 1e3) (fresh /. 1e3))
    true (aged < 0.85 *. fresh)

let test_utilization_counts () =
  let sim, dev = make_dev () in
  for _ = 1 to 100 do
    Nvme_model.submit dev ~kind:Io_op.Read ~bytes:4096 (fun ~latency:_ -> ())
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "reads counted" 100 (Nvme_model.reads_completed dev);
  Alcotest.(check bool) "utilization positive" true (Nvme_model.utilization dev > 0.0)

(* ------------------------------------------------------------------ *)
(* Queue_pair                                                         *)
(* ------------------------------------------------------------------ *)

let test_qp_roundtrip () =
  let sim, dev = make_dev () in
  let qp = Queue_pair.create dev in
  Alcotest.(check bool) "submit ok" true (Queue_pair.submit qp ~kind:Io_op.Read ~bytes:4096 ~cookie:7 = `Ok);
  Alcotest.(check int) "inflight" 1 (Queue_pair.inflight qp);
  ignore (Sim.run sim);
  Alcotest.(check int) "completion pending" 1 (Queue_pair.completions_pending qp);
  let n =
    Queue_pair.drain qp ~max:16 ~f:(fun ~cookie ~kind ~latency ->
        Alcotest.(check int) "cookie" 7 cookie;
        Alcotest.(check bool) "kind" true (Io_op.equal_kind kind Io_op.Read);
        Alcotest.(check bool) "latency plausible" true Time.(latency > Time.us 30))
  in
  Alcotest.(check int) "one completion" 1 n;
  Alcotest.(check int) "drained" 0 (Queue_pair.completions_pending qp)

let test_qp_full () =
  let sim, dev = make_dev () in
  let qp = Queue_pair.create dev in
  let depth = Device_profile.device_a.Device_profile.sq_depth in
  for i = 1 to depth do
    match Queue_pair.submit qp ~kind:Io_op.Read ~bytes:4096 ~cookie:i with
    | `Ok -> ()
    | `Full -> Alcotest.failf "premature Full at %d" i
  done;
  Alcotest.(check bool) "rejects past depth" true
    (Queue_pair.submit qp ~kind:Io_op.Read ~bytes:4096 ~cookie:0 = `Full);
  ignore (Sim.run sim);
  Alcotest.(check int) "all complete" depth (Queue_pair.completions_pending qp)

let test_qp_poll_max () =
  let sim, dev = make_dev () in
  let qp = Queue_pair.create dev in
  for i = 1 to 10 do
    ignore (Queue_pair.submit qp ~kind:Io_op.Write ~bytes:4096 ~cookie:i)
  done;
  ignore (Sim.run sim);
  let seen = ref 0 in
  Alcotest.(check int) "drain bounded" 4
    (Queue_pair.drain qp ~max:4 ~f:(fun ~cookie:_ ~kind:_ ~latency:_ -> incr seen));
  Alcotest.(check int) "f applied per completion" 4 !seen;
  Alcotest.(check int) "rest remain" 6 (Queue_pair.completions_pending qp)

(* Minor words per 4KB read through a queue pair, from submit through
   drain: batches of 16 reads, the device run to completion, the CQ
   reaped with a preallocated callback.  What is left is the boxed
   [Time.t]s at module edges (the die's service delay, the latency
   handed back, the clock re-boxed as time advances) and the lognormal
   service noise's float.  Exact for the seed; run under both build
   profiles ([make alloc-gate] runs it alone in release). *)
let qp_read_words () =
  let sim, dev = make_dev () in
  let qp = Queue_pair.create dev in
  let reaped = ref 0 in
  let f ~cookie:_ ~kind:_ ~latency:_ = incr reaped in
  let batch () =
    for i = 1 to 16 do
      ignore (Sys.opaque_identity (Queue_pair.submit qp ~kind:Io_op.Read ~bytes:4096 ~cookie:i))
    done;
    ignore (Sim.run sim);
    ignore (Queue_pair.drain qp ~max:16 ~f)
  in
  for _ = 1 to 10 do
    batch ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    batch ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every read reaped" 16_160 !reaped;
  words /. 16_000.0

let test_qp_read_words () =
  let w = qp_read_words () in
  Alcotest.(check bool) (Printf.sprintf "%.3f words per queue-pair read <= 14.0" w) true (w <= 14.0)

(* ------------------------------------------------------------------ *)
(* Calibrate                                                          *)
(* ------------------------------------------------------------------ *)

let test_measure_tracks_offered_load () =
  let pt =
    Calibrate.measure ~config:fast_config Device_profile.device_a ~read_ratio:0.9 ~bytes:4096
      ~rate:100_000.0
  in
  Alcotest.(check bool) "achieved ~ offered" true
    (abs_float (pt.Calibrate.achieved_iops -. 100_000.0) < 10_000.0);
  Alcotest.(check bool) "read split" true
    (abs_float (pt.Calibrate.achieved_read_iops -. 90_000.0) < 8_000.0)

let test_max_rate_monotone_in_slo () =
  let t_strict =
    Calibrate.max_rate_for_slo ~config:fast_config Device_profile.device_a ~read_ratio:0.9
      ~bytes:4096 ~p95_target_us:300.0
  in
  let t_loose =
    Calibrate.max_rate_for_slo ~config:fast_config Device_profile.device_a ~read_ratio:0.9
      ~bytes:4096 ~p95_target_us:5_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "looser SLO admits more IOPS (%.0f < %.0f)" t_strict t_loose)
    true (t_strict < t_loose)

let test_fit_recovers_write_cost () =
  (* The headline calibration result: the linear token model fits the
     simulated device A with a write cost near 10 and a read-only read
     cost near 1/2 (paper Figure 3a). *)
  let f =
    Calibrate.fit_cost_model ~config:fast_config
      ~read_ratios:[ 0.95; 0.9; 0.75; 0.5 ]
      Device_profile.device_a ~p95_target_us:1_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "write cost %.1f in [6,14]" f.Calibrate.write_cost)
    true
    (f.Calibrate.write_cost > 6.0 && f.Calibrate.write_cost < 14.0);
  Alcotest.(check bool)
    (Printf.sprintf "ro read cost %.2f in [0.3,0.75]" f.Calibrate.ro_read_cost)
    true
    (f.Calibrate.ro_read_cost > 0.3 && f.Calibrate.ro_read_cost < 0.75);
  Alcotest.(check bool) (Printf.sprintf "linear fit r2=%.3f" f.Calibrate.fit_r2) true
    (f.Calibrate.fit_r2 > 0.98);
  Alcotest.(check bool)
    (Printf.sprintf "token rate %.0fK near 550K" (f.Calibrate.token_rate /. 1e3))
    true
    (f.Calibrate.token_rate > 400e3 && f.Calibrate.token_rate < 700e3)

let test_max_token_rate_near_capacity () =
  let k = Calibrate.max_token_rate ~config:fast_config Device_profile.device_a ~p95_target_us:2_000.0 in
  (* Paper: 570K tokens/s at the 2ms SLO for device A. *)
  Alcotest.(check bool)
    (Printf.sprintf "K@2ms = %.0fK in [450K,700K]" (k /. 1e3))
    true
    (k > 450e3 && k < 700e3)

let suite =
  [
    ("io_op", [ Alcotest.test_case "sector rounding" `Quick test_sectors ]);
    ("device_profile", [ Alcotest.test_case "profiles" `Quick test_profiles ]);
    ( "nvme_model",
      [
        Alcotest.test_case "unloaded read latency (Table 2)" `Quick test_unloaded_read_latency;
        Alcotest.test_case "unloaded write latency (Table 2)" `Quick test_unloaded_write_latency;
        Alcotest.test_case "large reads cost more" `Quick test_large_reads_cost_more;
        Alcotest.test_case "<=4KB cost constant" `Quick test_small_reads_cost_constant;
        Alcotest.test_case "read-only window" `Quick test_read_only_mode_window;
        Alcotest.test_case "write buffer bounded" `Quick test_write_buffer_bounded;
        Alcotest.test_case "write interference raises read tail (Fig 1)" `Slow
          test_interference_raises_read_tail;
        Alcotest.test_case "hockey-stick latency curve (Fig 1)" `Slow test_hockey_stick;
        Alcotest.test_case "counters" `Quick test_utilization_counts;
        Alcotest.test_case "wear slows the device" `Slow test_wear_slows_device;
        Alcotest.test_case "wear recalibration (SS3.2.1)" `Slow test_wear_recalibration;
      ] );
    ( "queue_pair",
      [
        Alcotest.test_case "submit/poll roundtrip" `Quick test_qp_roundtrip;
        Alcotest.test_case "full at sq_depth" `Quick test_qp_full;
        Alcotest.test_case "poll bounded by max" `Quick test_qp_poll_max;
      ] );
    ("alloc", [ Alcotest.test_case "queue-pair read words" `Quick test_qp_read_words ]);
    ( "calibrate",
      [
        Alcotest.test_case "achieved tracks offered" `Quick test_measure_tracks_offered_load;
        Alcotest.test_case "SLO-rate monotone" `Slow test_max_rate_monotone_in_slo;
        Alcotest.test_case "fit recovers cost model (Fig 3a)" `Slow test_fit_recovers_write_cost;
        Alcotest.test_case "token rate at 2ms SLO" `Slow test_max_token_rate_near_capacity;
      ] );
  ]
