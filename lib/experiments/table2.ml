open Reflex_engine
open Reflex_net
open Reflex_client
open Reflex_stats

type row = {
  path : string;
  read_avg_us : float;
  read_p95_us : float;
  write_avg_us : float;
  write_p95_us : float;
}

let paper =
  [
    { path = "Local (SPDK)"; read_avg_us = 78.; read_p95_us = 90.; write_avg_us = 11.; write_p95_us = 17. };
    { path = "iSCSI"; read_avg_us = 211.; read_p95_us = 251.; write_avg_us = 155.; write_p95_us = 215. };
    { path = "Libaio (Linux)"; read_avg_us = 183.; read_p95_us = 205.; write_avg_us = 180.; write_p95_us = 205. };
    { path = "Libaio (IX)"; read_avg_us = 121.; read_p95_us = 139.; write_avg_us = 117.; write_p95_us = 144. };
    { path = "ReFlex (Linux)"; read_avg_us = 117.; read_p95_us = 135.; write_avg_us = 58.; write_p95_us = 64. };
    { path = "ReFlex (IX)"; read_avg_us = 99.; read_p95_us = 113.; write_avg_us = 31.; write_p95_us = 34. };
  ]

(* qd-1 prober over a client connection: mean and p95 for each I/O kind. *)
let probe_remote sim gen_of =
  let until = Time.ms 300 in
  let measure read_ratio =
    let gen = gen_of ~read_ratio ~until in
    ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 30)) sim);
    Load_gen.mark_measurement_start gen;
    ignore (Sim.run ~until:(Time.add (Sim.now sim) until) sim);
    gen
  in
  let reads = measure 1.0 in
  let writes = measure 0.0 in
  ( Load_gen.mean_read_us reads,
    Load_gen.p95_read_us reads,
    Load_gen.mean_write_us writes,
    Load_gen.p95_write_us writes )

let reflex_row ~stack ~label () =
  let w = Common.make_reflex () in
  let client = Common.client_of w ~stack ~tenant:1 () in
  let r_avg, r_p95, w_avg, w_p95 =
    probe_remote w.Common.sim (fun ~read_ratio ~until ->
        Load_gen.closed_loop w.Common.sim ~client ~depth:1 ~think:(Time.us 50) ~read_ratio
          ~bytes:4096
          ~until:(Time.add (Sim.now w.Common.sim) until)
          ())
  in
  { path = label; read_avg_us = r_avg; read_p95_us = r_p95; write_avg_us = w_avg; write_p95_us = w_p95 }

let baseline_row ~kind ~stack ~label () =
  let w = Common.make_baseline ~kind () in
  let client = Common.client_of_baseline w ~stack ~tenant:1 () in
  let r_avg, r_p95, w_avg, w_p95 =
    probe_remote w.Common.bsim (fun ~read_ratio ~until ->
        Load_gen.closed_loop w.Common.bsim ~client ~depth:1 ~think:(Time.us 50) ~read_ratio
          ~bytes:4096
          ~until:(Time.add (Sim.now w.Common.bsim) until)
          ())
  in
  { path = label; read_avg_us = r_avg; read_p95_us = r_p95; write_avg_us = w_avg; write_p95_us = w_p95 }

let local_row () =
  let sim = Sim.create () in
  let local = Reflex_baselines.Local.create sim () in
  let probe kind =
    let hist = Hdr_histogram.create () in
    let remaining = ref 3_000 in
    let rec next () =
      if !remaining > 0 then begin
        decr remaining;
        Reflex_baselines.Local.submit local ~kind ~bytes:4096 (fun ~latency ->
            Hdr_histogram.record hist latency;
            ignore (Sim.after sim (Time.us 50) next))
      end
    in
    ignore (Sim.at sim (Sim.now sim) next);
    ignore (Sim.run sim);
    (Hdr_histogram.mean_us hist, Hdr_histogram.percentile_us hist 95.0)
  in
  let r_avg, r_p95 = probe Reflex_flash.Io_op.Read in
  let w_avg, w_p95 = probe Reflex_flash.Io_op.Write in
  {
    path = "Local (SPDK)";
    read_avg_us = r_avg;
    read_p95_us = r_p95;
    write_avg_us = w_avg;
    write_p95_us = w_p95;
  }

let run ?(mode = Common.Quick) () =
  ignore mode;
  (* Six independent access-path worlds — fan the probes out. *)
  Runner.map
    (fun row -> row ())
    [
      (fun () -> local_row ());
      (fun () ->
        baseline_row ~kind:Reflex_baselines.Baseline_server.Iscsi ~stack:Stack_model.linux_client
          ~label:"iSCSI" ());
      (fun () ->
        baseline_row ~kind:Reflex_baselines.Baseline_server.Libaio ~stack:Stack_model.linux_client
          ~label:"Libaio (Linux)" ());
      (fun () ->
        baseline_row ~kind:Reflex_baselines.Baseline_server.Libaio ~stack:Stack_model.ix_client
          ~label:"Libaio (IX)" ());
      (fun () -> reflex_row ~stack:Stack_model.linux_client ~label:"ReFlex (Linux)" ());
      (fun () -> reflex_row ~stack:Stack_model.ix_client ~label:"ReFlex (IX)" ());
    ]

let to_table rows =
  let t =
    Table.create ~title:"Table 2: unloaded 4KB latency, measured vs paper (us)"
      ~columns:
        [ "path"; "read avg"; "read p95"; "write avg"; "write p95"; "paper read"; "paper write" ]
  in
  List.iter
    (fun r ->
      let p = List.find_opt (fun p -> p.path = r.path) paper in
      let paper_read, paper_write =
        match p with
        | Some p -> (Printf.sprintf "%.0f/%.0f" p.read_avg_us p.read_p95_us,
                     Printf.sprintf "%.0f/%.0f" p.write_avg_us p.write_p95_us)
        | None -> ("-", "-")
      in
      Table.add_row t
        [
          r.path;
          Table.cell_f r.read_avg_us;
          Table.cell_f r.read_p95_us;
          Table.cell_f r.write_avg_us;
          Table.cell_f r.write_p95_us;
          paper_read;
          paper_write;
        ])
    rows;
  t

let checks rows =
  let find rows path = List.find (fun r -> r.path = path) rows in
  let read path = (find rows path).read_avg_us in
  let local = read "Local (SPDK)" and ix = read "ReFlex (IX)" and linux = read "ReFlex (Linux)" in
  let libaio_ix = read "Libaio (IX)" and iscsi = read "iSCSI" and overhead = ix -. local in
  (* Paper Table 2's ordering, and the +21us headline: ReFlex (IX) adds
     12-32us over local. *)
  Identity.
    [
      check "six access paths" (List.length rows = 6);
      check "local fastest" (local < ix);
      check "reflex beats libaio" (ix < libaio_ix);
      check "linux client slower than ix" (ix < linux);
      check "iscsi slowest" (iscsi > linux && iscsi > libaio_ix);
      check (Printf.sprintf "ReFlex overhead %.0fus in [12,32]" overhead)
        (overhead > 12.0 && overhead < 32.0);
    ]
  (* Cell by cell, for the two rows the +21us headline compares, each
     within 10% of the paper; the other rows' deviations are recorded in
     DESIGN.md section 5. *)
  @ List.concat_map
      (fun path ->
        let sim = find rows path and paper = find paper path in
        List.map
          (fun (cell, f) ->
            Identity.within (Printf.sprintf "Table 2 %s %s (us)" path cell) ~paper:(f paper)
              ~sim:(f sim) ~tol:0.10)
          [
            ("read avg", fun r -> r.read_avg_us); ("read p95", fun r -> r.read_p95_us);
            ("write avg", fun r -> r.write_avg_us); ("write p95", fun r -> r.write_p95_us);
          ])
      [ "Local (SPDK)"; "ReFlex (IX)" ]
