open Reflex_engine
open Reflex_client
open Reflex_stats

type row = {
  scenario : int;
  sched : bool;
  tenant : string;
  p95_read_us : float;
  achieved_kiops : float;
  slo_kiops : float option;
}

let scenario ~mode ~scenario:sc ~sched =
  let w = Common.make_reflex ~qos:sched () in
  let sim = w.Common.sim in
  (* Tenants A and B: latency-critical. *)
  let a = Common.client_of w ~slo:(Common.lc_slo ~latency_us:500 ~iops:120_000 ~read_pct:100) ~tenant:1 () in
  let b = Common.client_of w ~slo:(Common.lc_slo ~latency_us:500 ~iops:70_000 ~read_pct:80) ~tenant:2 () in
  (* Tenants C and D: best-effort with different read mixes. *)
  let c = Common.client_of w ~slo:(Common.be_slo ~read_pct:95 ()) ~tenant:3 () in
  let d = Common.client_of w ~slo:(Common.be_slo ~read_pct:25 ()) ~tenant:4 () in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let b_rate = if sc = 1 then 70_000.0 else 45_000.0 in
  let gen_a =
    Load_gen.open_loop sim ~client:a ~pacing:`Cbr ~rate:120_000.0 ~read_ratio:1.0 ~bytes:4096
      ~until ~seed:11L ()
  in
  let gen_b =
    Load_gen.open_loop sim ~client:b ~pacing:`Cbr ~mix:`Deterministic ~rate:b_rate
      ~read_ratio:0.8 ~bytes:4096 ~until ~seed:12L ()
  in
  (* Best-effort tenants keep a deep queue outstanding — they take
     whatever throughput they are allowed. *)
  let gen_c =
    Load_gen.closed_loop sim ~client:c ~depth:256 ~read_ratio:0.95 ~bytes:4096 ~until ~seed:13L ()
  in
  let gen_d =
    Load_gen.closed_loop sim ~client:d ~depth:256 ~read_ratio:0.25 ~bytes:4096 ~until ~seed:14L ()
  in
  let gens = [ gen_a; gen_b; gen_c; gen_d ] in
  Common.measure_generators sim gens ~warmup:(Time.ms 100) ~window:(Common.window mode);
  let mk tenant gen slo_kiops =
    {
      scenario = sc;
      sched;
      tenant;
      p95_read_us = Load_gen.p95_read_us gen;
      achieved_kiops = Load_gen.achieved_iops gen /. 1e3;
      slo_kiops;
    }
  in
  [
    mk "A (LC 100%r)" gen_a (Some 120.0);
    mk "B (LC 80%r)" gen_b (Some (b_rate /. 1e3));
    mk "C (BE 95%r)" gen_c None;
    mk "D (BE 25%r)" gen_d None;
  ]

let run ?(mode = Common.Quick) () =
  (* Four independent worlds (scenario x scheduler on/off): fan out. *)
  Runner.concat_map
    (fun (sc, sched) -> scenario ~mode ~scenario:sc ~sched)
    [ (1, false); (1, true); (2, false); (2, true) ]

let to_table rows =
  let t =
    Table.create
      ~title:
        "Figure 5: tenant isolation (A/B latency-critical @500us p95; C/D best-effort)"
      ~columns:[ "scenario"; "sched"; "tenant"; "p95 read (us)"; "KIOPS"; "reserved KIOPS" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_i r.scenario;
          (if r.sched then "on" else "off");
          r.tenant;
          Table.cell_f r.p95_read_us;
          Table.cell_f r.achieved_kiops;
          (match r.slo_kiops with Some s -> Table.cell_f s | None -> "-");
        ])
    rows;
  t

let checks rows =
  let get sc sched tenant f =
    f (List.find (fun r -> r.scenario = sc && r.sched = sched && r.tenant.[0] = tenant) rows)
  in
  let p95 r = r.p95_read_us and kiops r = r.achieved_kiops in
  let c_on = get 1 true 'C' kiops in
  Identity.
    [
      (* Scenario 1, scheduler on: both LC tenants meet the 500us SLO at
         their reserved IOPS. *)
      check "A meets SLO" (get 1 true 'A' p95 <= 500.0);
      check "B meets SLO" (get 1 true 'B' p95 <= 500.0);
      check "A at reservation" (get 1 true 'A' kiops > 115.0);
      check "B at reservation" (get 1 true 'B' kiops > 66.0);
      (* Scheduler off: the LC SLO is violated. *)
      check "A violated without scheduler" (get 1 false 'A' p95 > 500.0);
      (* BE fairness: C (95% reads) gets several times D's IOPS (write
         cost). *)
      check "C >> D" (c_on > 3.0 *. get 1 true 'D' kiops);
      (* Scenario 2: B's unused reservation flows to the BE tenants. *)
      check "work conservation across scenarios" (get 2 true 'C' kiops > 1.2 *. c_on);
    ]
