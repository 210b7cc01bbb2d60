open Reflex_engine
open Reflex_client
open Reflex_stats

type neg_limit_row = {
  neg_limit : float;
  bursty_lc_p95_us : float;
  victim_lc_p95_us : float;
}

type donation_row = { fraction : float; be_kiops : float }

type batch_row = { batch_cap : int; achieved_kiops : float; p95_us : float }

type cost_model_row = {
  config : string;
  lc_p95_us : float;
  lc_slo_met : bool;
  be_write_kiops : float;
}

(* ---------------- NEG_LIMIT ---------------- *)

(* A bursty (Poisson, random mix) LC tenant at its full 80%-read
   reservation, next to a smooth CBR read-only "victim": the deficit
   allowance absorbs the bursty tenant's arrival noise; overly deep
   deficits let its 10-token writes crowd the device. *)
let neg_limit_point ~mode ~neg_limit =
  let w = Common.make_reflex ~neg_limit () in
  let sim = w.Common.sim in
  let bursty =
    Common.client_of w ~slo:(Common.lc_slo ~latency_us:1000 ~iops:60_000 ~read_pct:80) ~tenant:1 ()
  in
  let victim =
    Common.client_of w ~slo:(Common.lc_slo ~latency_us:1000 ~iops:100_000 ~read_pct:100)
      ~tenant:2 ()
  in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let gen_bursty =
    Load_gen.open_loop sim ~client:bursty ~rate:60_000.0 ~read_ratio:0.8 ~bytes:4096 ~until
      ~seed:21L ()
  in
  let gen_victim =
    Load_gen.open_loop sim ~client:victim ~pacing:`Cbr ~rate:100_000.0 ~read_ratio:1.0
      ~bytes:4096 ~until ~seed:22L ()
  in
  Common.measure_generators sim [ gen_bursty; gen_victim ] ~warmup:(Time.ms 50)
    ~window:(Common.window mode);
  {
    neg_limit;
    bursty_lc_p95_us = Load_gen.p95_read_us gen_bursty;
    victim_lc_p95_us = Load_gen.p95_read_us gen_victim;
  }

let run_neg_limit ?(mode = Common.Quick) () =
  Runner.map (fun neg_limit -> neg_limit_point ~mode ~neg_limit) [ 0.0; -10.0; -50.0; -500.0 ]

(* ---------------- donation fraction ---------------- *)

(* An idle LC tenant reserves nearly the whole device; a deep-queued BE
   tenant's throughput beyond its own sliver of a share then comes
   entirely from the LC tenant's donations through the global bucket. *)
let donation_point ~mode ~fraction =
  let w = Common.make_reflex ~donate_fraction:fraction () in
  let sim = w.Common.sim in
  let _idle_lc =
    Common.client_of w ~slo:(Common.lc_slo ~latency_us:1000 ~iops:800_000 ~read_pct:100)
      ~tenant:1 ()
  in
  let be = Common.client_of w ~slo:(Common.be_slo ()) ~tenant:2 () in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let gen_be =
    Load_gen.closed_loop sim ~client:be ~depth:512 ~read_ratio:1.0 ~bytes:4096 ~until ~seed:31L ()
  in
  Common.measure_generators sim [ gen_be ] ~warmup:(Time.ms 50) ~window:(Common.window mode);
  { fraction; be_kiops = Load_gen.achieved_iops gen_be /. 1e3 }

let run_donation ?(mode = Common.Quick) () =
  Runner.map (fun fraction -> donation_point ~mode ~fraction) [ 0.0; 0.5; 0.9; 1.0 ]

(* ---------------- adaptive batching cap ---------------- *)

let batching_point ~mode ~batch_cap =
  let costs = { Reflex_core.Costs.default with Reflex_core.Costs.batch_max = batch_cap } in
  let sim = Sim.create () in
  let fabric = Reflex_net.Fabric.create sim () in
  let server = Reflex_core.Server.create sim ~fabric ~costs () in
  let w = { Common.sim; fabric; server; telemetry = Reflex_telemetry.Telemetry.disabled } in
  let clients = List.init 4 (fun i -> Common.client_of w ~tenant:(i + 1) ()) in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let gens =
    List.mapi
      (fun i client ->
        Load_gen.open_loop sim ~client ~rate:200_000.0 ~read_ratio:1.0 ~bytes:1024 ~until
          ~seed:(Int64.of_int (41 + i))
          ())
      clients
  in
  Common.measure_generators sim gens ~warmup:(Time.ms 50) ~window:(Common.window mode);
  let achieved = List.fold_left (fun a g -> a +. Load_gen.achieved_iops g) 0.0 gens in
  let p95 = List.fold_left (fun a g -> Float.max a (Load_gen.p95_read_us g)) 0.0 gens in
  { batch_cap; achieved_kiops = achieved /. 1e3; p95_us = p95 }

let run_batching ?(mode = Common.Quick) () =
  Runner.map (fun batch_cap -> batching_point ~mode ~batch_cap) [ 1; 4; 16; 64; 512 ]

(* ---------------- cost model ---------------- *)

(* Figure 5's scenario with the calibrated cost model versus a naive one
   that prices writes like reads: the naive scheduler converts tenant D's
   token share into 10x more write work than the device can absorb, and
   the LC tenant's tail blows through its SLO. *)
let cost_model_point ~mode ~config ~cost_model =
  let sim = Sim.create () in
  let fabric = Reflex_net.Fabric.create sim () in
  let server = Reflex_core.Server.create sim ~fabric ?cost_model () in
  let w = { Common.sim; fabric; server; telemetry = Reflex_telemetry.Telemetry.disabled } in
  let lc =
    Common.client_of w ~slo:(Common.lc_slo ~latency_us:500 ~iops:100_000 ~read_pct:100)
      ~tenant:1 ()
  in
  let be = Common.client_of w ~slo:(Common.be_slo ~read_pct:0 ()) ~tenant:2 () in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let gen_lc =
    Load_gen.open_loop sim ~client:lc ~pacing:`Cbr ~rate:100_000.0 ~read_ratio:1.0 ~bytes:4096
      ~until ~seed:51L ()
  in
  let gen_be =
    Load_gen.closed_loop sim ~client:be ~depth:192 ~read_ratio:0.0 ~bytes:4096 ~until ~seed:52L ()
  in
  Common.measure_generators sim [ gen_lc; gen_be ] ~warmup:(Time.ms 50)
    ~window:(Common.window mode);
  let p95 = Load_gen.p95_read_us gen_lc in
  {
    config;
    lc_p95_us = p95;
    lc_slo_met = p95 <= 500.0;
    be_write_kiops = Load_gen.achieved_iops gen_be /. 1e3;
  }

let run_cost_model ?(mode = Common.Quick) () =
  Runner.map
    (fun (config, cost_model) -> cost_model_point ~mode ~config ~cost_model)
    [
      ("calibrated (write = 10 tokens)", None);
      ( "naive (write = 1 token)",
        Some { Reflex_qos.Cost_model.write_cost = 1.0; ro_read_cost = 0.5 } );
    ]

(* ---------------- acceptance rows ---------------- *)

let donation_checks rows =
  let at f = (List.find (fun r -> r.fraction = f) rows).be_kiops in
  [ Identity.check "donations feed best-effort tenants" (at 0.9 > 1.3 *. at 0.0) ]

let batching_checks rows =
  let at cap = List.find (fun (r : batch_row) -> r.batch_cap = cap) rows in
  Identity.
    [
      check "no batching collapses throughput"
        ((at 1).achieved_kiops < 0.85 *. (at 64).achieved_kiops);
      check "no batching inflates the tail" ((at 1).p95_us > 5.0 *. (at 64).p95_us);
    ]

let cost_model_checks rows =
  let p95 met = (List.find (fun r -> r.lc_slo_met = met) rows).lc_p95_us in
  [ Identity.check "naive pricing blows the LC tail" (p95 false > 1.5 *. p95 true) ]

(* ---------------- tables ---------------- *)

let neg_limit_table rows =
  let t =
    Table.create ~title:"Ablation: NEG_LIMIT deficit allowance (paper: -50 tokens)"
      ~columns:[ "NEG_LIMIT"; "bursty LC p95 (us)"; "victim LC p95 (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ Table.cell_f r.neg_limit; Table.cell_f r.bursty_lc_p95_us; Table.cell_f r.victim_lc_p95_us ])
    rows;
  t

let donation_table rows =
  let t =
    Table.create ~title:"Ablation: LC->global-bucket donation fraction (paper: 0.9)"
      ~columns:[ "fraction"; "BE KIOPS from donations" ]
  in
  List.iter
    (fun r -> Table.add_row t [ Table.cell_f ~decimals:2 r.fraction; Table.cell_f r.be_kiops ])
    rows;
  t

let batching_table rows =
  let t =
    Table.create ~title:"Ablation: adaptive batching cap (paper: 64) at 800K offered IOPS"
      ~columns:[ "batch cap"; "achieved KIOPS"; "p95 (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ Table.cell_i r.batch_cap; Table.cell_f r.achieved_kiops; Table.cell_f r.p95_us ])
    rows;
  t

let cost_model_table rows =
  let t =
    Table.create ~title:"Ablation: request cost model under a best-effort write flood"
      ~columns:[ "cost model"; "LC p95 (us)"; "500us SLO"; "BE write KIOPS" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.config;
          Table.cell_f r.lc_p95_us;
          (if r.lc_slo_met then "met" else "VIOLATED");
          Table.cell_f r.be_write_kiops;
        ])
    rows;
  t
