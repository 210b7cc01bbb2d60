open Reflex_engine
open Reflex_client
open Reflex_stats
open Reflex_telemetry

(* The canonical telemetry scenario: the Fig-6-style multi-tenant setup
   (two dataplane threads, two latency-critical tenants with different
   SLOs, two best-effort write floods) run with full lifecycle tracing,
   metrics sampling and a flight recorder, whose ring is the scheduler
   decision log.  This is what `reflex_sim trace` executes: BE writes
   create die contention and token throttling, so the per-request
   breakdowns and the SLO audit have something real to attribute. *)

type tenant_row = {
  tr_tenant : int;
  tr_class : string;
  tr_achieved_kiops : float;
  tr_p95_read_us : float;
}

type result = { telemetry : Telemetry.t; rows : tenant_row list }

(* Two LC tenants with distinct SLOs: a tight 200us reservation at 60K
   IOPS and a looser 500us one at 30K. *)
let lc_specs =
  [
    { Common.lc_tenant = 1; lc_latency_us = 200; lc_iops = 80_000; lc_read_pct = 100;
      lc_rate = 60_000.0; lc_read_ratio = 1.0 };
    { lc_tenant = 2; lc_latency_us = 500; lc_iops = 40_000; lc_read_pct = 90;
      lc_rate = 30_000.0; lc_read_ratio = 0.9 };
  ]

let run ?(mode = Common.Quick) () =
  let telemetry = Telemetry.create () in
  Telemetry.set_flight telemetry (Reflex_obs.Flight.create ());
  let w = Common.make_reflex ~n_threads:2 ~telemetry () in
  let sim = w.Common.sim in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let lc, be = Common.mixed_load w ~seed:0L ~until ~lc:lc_specs ~be_depth:64 () in
  let gens = List.map (fun (l : Common.load) -> l.gen) (lc @ be) in
  Common.measure_generators sim gens ~warmup:(Time.ms 50) ~window:(Common.window mode);
  let row kind (l : Common.load) =
    {
      tr_tenant = l.tenant;
      tr_class = kind;
      tr_achieved_kiops = Load_gen.achieved_iops l.gen /. 1e3;
      tr_p95_read_us =
        (if Hdr_histogram.count (Load_gen.reads l.gen) = 0 then 0.0
         else Load_gen.p95_read_us l.gen);
    }
  in
  { telemetry; rows = List.map (row "LC") lc @ List.map (row "BE") be }

let to_table rows =
  let t =
    Table.create ~title:"trace scenario: 2 LC tenants + 2 BE write floods on 2 cores"
      ~columns:[ "tenant"; "class"; "achieved KIOPS"; "p95 read (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_i r.tr_tenant;
          r.tr_class;
          Table.cell_f r.tr_achieved_kiops;
          Table.cell_f r.tr_p95_read_us;
        ])
    rows;
  t
