open Reflex_engine
open Reflex_client
open Reflex_stats
open Reflex_telemetry
open Reflex_faults

(* The resilience acceptance scenario, and the one chaos world that the
   monitor and obs scenarios build on: the Fig-6-style multi-tenant
   setup (two dataplane threads, two LC tenants, two BE write floods)
   run under the scripted fault plan — die 0 fails at 2s for 2s, a GC
   storm runs 5s..6s, the link flaps at 8s for 500ms — with client
   retries armed on the LC tenants and telemetry recording fault marks.
   The timeline is cut into 500ms buckets and each bucket reports the
   per-tenant read p95, so the table shows latency climbing inside the
   fault windows and returning to the SLO outside them.  Quick mode
   compresses the whole timeline (and the plan) by 10x. *)

type bucket_row = {
  cb_start_ms : float;
  cb_faults : string;  (** labels of plan windows overlapping the bucket; "-" when none *)
  cb_clean : bool;
      (** no fault window (plus one bucket of settle padding after
          recovery) overlaps — the buckets held against the SLO *)
  cb_lc1_p95_us : float;  (** NaN when the bucket saw no read completions *)
  cb_lc2_p95_us : float;
  cb_be_kiops : float;
}

type result = {
  telemetry : Telemetry.t;
  plan : Fault_plan.t;
  rows : bucket_row list;
  lc1_slo_us : float;
  lc2_slo_us : float;
  injected : int;
  recovered : int;
  retries : int;  (** re-issued attempts across LC clients *)
  timeouts : int;  (** per-attempt deadline expiries *)
  timeout_errors : int;  (** Timed_out completions (retry budget exhausted) *)
  lc_issued : int;
  retry_policy : Retry.policy;
}

let scale_of = function Common.Quick -> 0.1 | Common.Full -> 1.0
let timeline scale = Time.scale (Time.sec 10) scale
let n_buckets = 20

(* Retry policy for the chaos clients.  The per-attempt deadline (20ms)
   is far above the healthy p99 but below the flap duration, and the
   worst-case budget (~65ms) spans the quick-mode flap — so most
   requests issued inside a short flap survive on a later attempt, while
   a long flap produces bounded, counted give-ups.  Amplification is
   capped at 3 attempts per op: with LC reservations well above the
   offered rates, the post-flap zombie backlog drains within one bucket
   instead of feeding a retry storm. *)
let retry =
  Retry.validate
    {
      Retry.timeout = Time.ms 20;
      max_retries = 2;
      backoff_base = Time.ms 1;
      backoff_mult = 4.0;
      backoff_max = Time.ms 20;
      jitter = 0.2;
    }

(* Two LC tenants with distinct SLOs; two BE write floods (no retry —
   the paper's fire-and-wait client).  Offered LC rates sit well under
   the reservations so recovery from a fault window is drain-limited,
   not reservation-limited. *)
let lc_specs =
  [
    { Common.lc_tenant = 1; lc_latency_us = 500; lc_iops = 150_000; lc_read_pct = 100;
      lc_rate = 20_000.0; lc_read_ratio = 1.0 };
    { lc_tenant = 2; lc_latency_us = 1000; lc_iops = 75_000; lc_read_pct = 90;
      lc_rate = 10_000.0; lc_read_ratio = 0.9 };
  ]

let load ?retry w ~seed ~scale =
  Common.mixed_load w ~seed ~until:(timeline scale) ~lc:lc_specs ~be_depth:32 ?retry ()

let arm_faults w ~seed ~scale loads =
  let plan = Fault_plan.scripted ~scale () in
  let tgt =
    Injector.target ~sim:w.Common.sim ~fabric:w.Common.fabric ~server:w.Common.server
      ~gens:(Array.of_list (List.map (fun (l : Common.load) -> l.gen) loads))
      ~telemetry:w.Common.telemetry ()
  in
  (plan, Injector.arm ~seed:(Int64.add seed 7L) tgt ~plan)

let run ?(mode = Common.Quick) ?(seed = 42L) () =
  let scale = scale_of mode in
  let telemetry = Telemetry.create ~span_capacity:(1 lsl 19) () in
  let w = Common.make_reflex ~n_threads:2 ~telemetry ~seed () in
  let sim = w.Common.sim in
  let bucket = Time.scale (Time.ms 500) scale in
  let lc, be = load ~retry w ~seed ~scale in
  let plan, inj = arm_faults w ~seed ~scale (lc @ be) in
  let gens = List.map (fun (l : Common.load) -> l.gen) (lc @ be) in
  let overlaps ~b0 ~b1 ~pad (wd : Fault_plan.window) =
    let stop = Time.add (Time.add wd.at wd.duration) pad in
    Time.(wd.at < b1) && Time.(b0 < stop)
  in
  let lc1_gen, lc2_gen =
    match lc with [ a; b ] -> (a.gen, b.gen) | _ -> assert false
  in
  let rows = ref [] in
  for i = 0 to n_buckets - 1 do
    let b0 = Time.scale bucket (float_of_int i) in
    let b1 = Time.scale bucket (float_of_int (i + 1)) in
    List.iter Load_gen.mark_measurement_start gens;
    ignore (Sim.run ~until:b1 sim);
    let labels =
      List.filter (overlaps ~b0 ~b1 ~pad:Time.zero) plan
      |> List.map (fun (wd : Fault_plan.window) -> Fault_plan.label wd.fault)
    in
    rows :=
      {
        cb_start_ms = Time.to_float_ms b0;
        cb_faults = (if labels = [] then "-" else String.concat "," labels);
        cb_clean = not (List.exists (overlaps ~b0 ~b1 ~pad:bucket) plan);
        cb_lc1_p95_us = Load_gen.p95_read_us lc1_gen;
        cb_lc2_p95_us = Load_gen.p95_read_us lc2_gen;
        cb_be_kiops =
          List.fold_left (fun a (l : Common.load) -> a +. Load_gen.achieved_iops l.gen) 0.0 be
          /. 1e3;
      }
      :: !rows
  done;
  (* Drain retry timers and in-flight tails past the timeline end. *)
  ignore (Sim.run sim);
  let sum_lc f = List.fold_left (fun a (l : Common.load) -> a + f l) 0 lc in
  {
    telemetry;
    plan;
    rows = List.rev !rows;
    lc1_slo_us = 500.0;
    lc2_slo_us = 1000.0;
    injected = Injector.injected inj;
    recovered = Injector.recovered inj;
    retries = sum_lc (fun l -> Client_lib.retries l.client);
    timeouts = sum_lc (fun l -> Client_lib.timeouts l.client);
    timeout_errors = List.fold_left (fun a g -> a + Load_gen.timeout_errors g) 0 gens;
    lc_issued = sum_lc (fun l -> Load_gen.issued l.gen);
    retry_policy = retry;
  }

(* Worst clean-bucket p95 per LC tenant (NaN-free; buckets without read
   completions are skipped). *)
let clean_worst r =
  let fold f =
    List.fold_left
      (fun acc b ->
        let v = f b in
        if b.cb_clean && not (Float.is_nan v) then Float.max acc v else acc)
      0.0 r.rows
  in
  (fold (fun b -> b.cb_lc1_p95_us), fold (fun b -> b.cb_lc2_p95_us))

let clean_ok r =
  let w1, w2 = clean_worst r in
  w1 <= r.lc1_slo_us && w2 <= r.lc2_slo_us

let retries_bounded r =
  let max_attempts = r.retry_policy.Retry.max_retries + 1 in
  r.retries <= r.lc_issued * r.retry_policy.Retry.max_retries
  && r.timeouts <= r.lc_issued * max_attempts

let to_table r =
  let t =
    Table.create ~title:"chaos: 500ms p95 buckets across the scripted fault plan (x0.1 in quick)"
      ~columns:[ "t (ms)"; "faults"; "LC1 p95 (us)"; "LC2 p95 (us)"; "BE KIOPS"; "clean" ]
  in
  let cell v = if Float.is_nan v then "-" else Table.cell_f v in
  List.iter
    (fun b ->
      Table.add_row t
        [
          Table.cell_f ~decimals:1 b.cb_start_ms;
          b.cb_faults;
          cell b.cb_lc1_p95_us;
          cell b.cb_lc2_p95_us;
          Table.cell_f b.cb_be_kiops;
          (if b.cb_clean then "yes" else "no");
        ])
    r.rows;
  t

let render_result r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Fault_plan.to_string r.plan);
  Buffer.add_string buf (Table.render (to_table r));
  let w1, w2 = clean_worst r in
  let cv name = Telemetry.counter_value (Telemetry.counter r.telemetry name) in
  Buffer.add_string buf "summary:\n";
  Buffer.add_string buf
    (Printf.sprintf "  fault windows injected/recovered: %d/%d (telemetry %d/%d)\n" r.injected
       r.recovered
       (int_of_float (cv "faults/injected"))
       (int_of_float (cv "faults/recovered")));
  Buffer.add_string buf
    (Printf.sprintf
       "  LC retries: %d, per-attempt timeouts: %d, timed-out completions: %d (telemetry \
        retries/timeouts %d/%d)\n"
       r.retries r.timeouts r.timeout_errors
       (int_of_float (cv "client/retries"))
       (int_of_float (cv "client/timeouts")));
  Buffer.add_string buf
    (Printf.sprintf "  retry budget per request <= %.2fms; retries bounded: %b\n"
       (Time.to_float_ms (Retry.worst_case_total r.retry_policy))
       (retries_bounded r));
  Buffer.add_string buf
    (Printf.sprintf
       "  clean-bucket worst p95: LC1 %.1fus (SLO %.0f), LC2 %.1fus (SLO %.0f) -> %s\n" w1
       r.lc1_slo_us w2 r.lc2_slo_us
       (if clean_ok r then "SLO HELD" else "SLO VIOLATED"))
  ;
  Buffer.add_string buf (Telemetry.faults_report r.telemetry);
  Buffer.contents buf

let render ?mode ?seed () = render_result (run ?mode ?seed ())

let checks r =
  [
    Identity.check "clean-bucket LC p95 within SLO" (clean_ok r);
    Identity.check "retries within the policy budget" (retries_bounded r);
  ]
