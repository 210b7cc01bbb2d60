open Reflex_engine
open Reflex_net
open Reflex_client
open Reflex_stats

type core_row = {
  cores : int;
  lc_kiops : float;
  be_kiops : float;
  ktokens_per_sec : float;
  lc_p95_worst_us : float;
}

type tenant_row = { server_cores : int; tenants : int; achieved_kiops : float; p95_us : float }

type conn_row = { iops_per_conn : int; conns : int; achieved_kiops : float; p95c_us : float }

(* ---------------- Figure 6a: core scaling ---------------- *)

let cores_point ~mode ~cores =
  let w = Common.make_reflex ~n_threads:cores () in
  let sim = w.Common.sim in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  (* One LC tenant per core: 20K IOPS at 90% reads under a 2ms SLO. *)
  let lc_gens =
    List.init cores (fun i ->
        let client =
          Common.client_of w
            ~slo:(Common.lc_slo ~latency_us:2000 ~iops:20_000 ~read_pct:90)
            ~tenant:(i + 1) ()
        in
        Load_gen.open_loop sim ~client ~pacing:`Cbr ~mix:`Deterministic ~rate:20_000.0
          ~read_ratio:0.9 ~bytes:4096 ~until
          ~seed:(Int64.of_int (61 + i))
          ())
  in
  (* Two best-effort tenants soak up the leftover bandwidth. *)
  let be_gens =
    List.init 2 (fun i ->
        let client = Common.client_of w ~slo:(Common.be_slo ~read_pct:80 ()) ~tenant:(100 + i) () in
        Load_gen.closed_loop sim ~client ~depth:96 ~read_ratio:0.8 ~bytes:4096 ~until
          ~seed:(Int64.of_int (81 + i))
          ())
  in
  let warmup = Time.ms 100 in
  let t0 = Sim.now sim in
  ignore (Sim.run ~until:(Time.add t0 warmup) sim);
  let tokens0 = Reflex_core.Server.tokens_spent w.Common.server in
  List.iter Load_gen.mark_measurement_start (lc_gens @ be_gens);
  let window = Common.window mode in
  ignore (Sim.run ~until:(Time.add t0 (Time.add warmup window)) sim);
  let tokens1 = Reflex_core.Server.tokens_spent w.Common.server in
  List.iter Load_gen.freeze_window (lc_gens @ be_gens);
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 20)) sim);
  let sum gens = List.fold_left (fun a g -> a +. Load_gen.achieved_iops g) 0.0 gens in
  {
    cores;
    lc_kiops = sum lc_gens /. 1e3;
    be_kiops = sum be_gens /. 1e3;
    ktokens_per_sec = (tokens1 -. tokens0) /. Time.to_float_sec window /. 1e3;
    lc_p95_worst_us = List.fold_left (fun a g -> Float.max a (Load_gen.p95_read_us g)) 0.0 lc_gens;
  }

let run_cores ?(mode = Common.Quick) () =
  let counts = Common.scale_points mode [ 1; 2; 4; 8; 12 ] [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ] in
  Runner.map (fun cores -> cores_point ~mode ~cores) counts

(* ---------------- Figure 6b: tenant scaling ---------------- *)

let tenants_point ~mode ~server_cores ~tenants =
  let w = Common.make_reflex ~n_threads:server_cores () in
  let sim = w.Common.sim in
  (* Client machines are shared: mutilate coordinates many threads over a
     handful of hosts. *)
  let hosts =
    Array.init 16 (fun i ->
        Fabric.add_host w.Common.fabric ~name:(Printf.sprintf "loadgen-%d" i)
          ~stack:Stack_model.ix_client)
  in
  let clients =
    List.init tenants (fun i ->
        let client =
          Client_lib.connect sim w.Common.fabric
            ~server_host:(Reflex_core.Server.host w.Common.server)
            ~accept:(Reflex_core.Server.accept w.Common.server)
            ~stack:Stack_model.ix_client
            ~host:hosts.(i mod 16) ()
        in
        Client_lib.register client ~tenant:(i + 1)
          ~slo:(Common.lc_slo ~latency_us:2000 ~iops:100 ~read_pct:100)
          (fun _ -> ());
        client)
  in
  ignore (Sim.run sim);
  (* The control plane may reject the tail of the fleet once reservations
     exhaust the device; drive only the admitted tenants. *)
  let admitted = List.filter (fun c -> Client_lib.handle c <> None) clients in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let gens =
    List.mapi
      (fun i client ->
        Load_gen.open_loop sim ~client ~pacing:`Cbr ~rate:100.0 ~read_ratio:1.0 ~bytes:1024
          ~until
          ~seed:(Int64.of_int (3000 + i))
          ())
      admitted
  in
  Common.measure_generators sim gens ~warmup:(Time.ms 50) ~window:(Common.window mode);
  let achieved = List.fold_left (fun a g -> a +. Load_gen.achieved_iops g) 0.0 gens in
  let p95 =
    List.fold_left
      (fun a g ->
        if Hdr_histogram.count (Load_gen.reads g) = 0 then a
        else Float.max a (Load_gen.p95_read_us g))
      0.0 gens
  in
  { server_cores; tenants; achieved_kiops = achieved /. 1e3; p95_us = p95 }

let run_tenants ?(mode = Common.Quick) () =
  let sweep =
    Common.scale_points mode
      [ (1, 1000); (1, 2500); (1, 4000); (2, 5000); (4, 8000) ]
      [
        (1, 500); (1, 1000); (1, 2000); (1, 2500); (1, 3000); (1, 4000);
        (2, 2500); (2, 5000); (2, 6000); (4, 5000); (4, 8000); (4, 10000);
      ]
  in
  Runner.map (fun (server_cores, tenants) -> tenants_point ~mode ~server_cores ~tenants) sweep

(* ---------------- Figure 6c: connection scaling ---------------- *)

let conns_point ~mode ~iops_per_conn ~conns =
  let w = Common.make_reflex ~n_threads:1 () in
  let sim = w.Common.sim in
  let hosts =
    Array.init 16 (fun i ->
        Fabric.add_host w.Common.fabric ~name:(Printf.sprintf "loadgen-%d" i)
          ~stack:Stack_model.ix_client)
  in
  (* All connections belong to ONE tenant (the tenant abstraction spans
     client machines and threads). *)
  let clients =
    List.init conns (fun i ->
        let client =
          Client_lib.connect sim w.Common.fabric
            ~server_host:(Reflex_core.Server.host w.Common.server)
            ~accept:(Reflex_core.Server.accept w.Common.server)
            ~stack:Stack_model.ix_client
            ~host:hosts.(i mod 16) ()
        in
        Client_lib.register client ~tenant:1 ~slo:(Common.be_slo ()) (fun _ -> ());
        client)
  in
  ignore (Sim.run sim);
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  let gens =
    List.mapi
      (fun i client ->
        Load_gen.open_loop sim ~client ~pacing:`Cbr ~rate:(float_of_int iops_per_conn)
          ~read_ratio:1.0 ~bytes:1024 ~until
          ~seed:(Int64.of_int (5000 + i))
          ())
      clients
  in
  Common.measure_generators sim gens ~warmup:(Time.ms 50) ~window:(Common.window mode);
  let achieved = List.fold_left (fun a g -> a +. Load_gen.achieved_iops g) 0.0 gens in
  let p95 =
    List.fold_left
      (fun a g ->
        if Hdr_histogram.count (Load_gen.reads g) = 0 then a
        else Float.max a (Load_gen.p95_read_us g))
      0.0 gens
  in
  { iops_per_conn; conns; achieved_kiops = achieved /. 1e3; p95c_us = p95 }

let run_conns ?(mode = Common.Quick) () =
  let sweep =
    Common.scale_points mode
      [ (100, 1000); (100, 5000); (100, 8000); (500, 1000); (1000, 500); (1000, 850) ]
      [
        (100, 100); (100, 1000); (100, 2000); (100, 5000); (100, 8000);
        (500, 200); (500, 1000); (500, 1700);
        (1000, 100); (1000, 500); (1000, 850);
      ]
  in
  Runner.map (fun (iops_per_conn, conns) -> conns_point ~mode ~iops_per_conn ~conns) sweep

(* ---------------- tables ---------------- *)

let cores_table rows =
  let t =
    Table.create
      ~title:"Figure 6a: multi-core scaling (20K-IOPS LC tenant per core @2ms + 2 BE tenants)"
      ~columns:[ "cores"; "LC KIOPS"; "BE KIOPS"; "ktokens/s"; "worst LC p95 (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_i r.cores;
          Table.cell_f r.lc_kiops;
          Table.cell_f r.be_kiops;
          Table.cell_f r.ktokens_per_sec;
          Table.cell_f r.lc_p95_worst_us;
        ])
    rows;
  t

let cores_checks rows =
  let at cores = List.find (fun r -> r.cores = cores) rows in
  let r1 = at 1 and r12 = at 12 in
  Identity.check "LC scales ~12x" (r12.lc_kiops > 10.0 *. r1.lc_kiops)
  :: Identity.check "BE shrinks" (r12.be_kiops < r1.be_kiops)
  (* Token usage pinned at the 2ms ceiling, and every LC tenant within
     its 2ms SLO, at every scale. *)
  :: List.concat_map
       (fun r ->
         let name fmt v = Printf.sprintf fmt r.cores v in
         Identity.
           [
             check (name "tokens pinned (%d cores: %.0fK)" r.ktokens_per_sec)
               (abs_float (r.ktokens_per_sec -. r1.ktokens_per_sec) < 20.0);
             check (name "all LC under 2ms SLO (%d cores: %.0fus)" r.lc_p95_worst_us)
               (r.lc_p95_worst_us < 2000.0);
           ])
       rows

let tenants_table rows =
  let t =
    Table.create ~title:"Figure 6b: tenant scaling (100 1KB-read IOPS per tenant)"
      ~columns:[ "server cores"; "tenants"; "achieved KIOPS"; "p95 (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_i r.server_cores;
          Table.cell_i r.tenants;
          Table.cell_f r.achieved_kiops;
          Table.cell_f r.p95_us;
        ])
    rows;
  t

let conns_table rows =
  let t =
    Table.create ~title:"Figure 6c: connection scaling (single tenant, one core)"
      ~columns:[ "IOPS/conn"; "conns"; "achieved KIOPS"; "p95 (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_i r.iops_per_conn;
          Table.cell_i r.conns;
          Table.cell_f r.achieved_kiops;
          Table.cell_f r.p95c_us;
        ])
    rows;
  t
