open Reflex_engine
open Reflex_net
open Reflex_client
open Reflex_stats

type row = {
  system : string;
  threads : int;
  offered_kiops : float;
  achieved_kiops : float;
  p95_us : float;
}

let bytes = 1024
let n_client_threads = 4

(* Drive a set of per-client open-loop generators and report the summed
   achieved rate plus the worst p95. *)
let drive sim gens ~window =
  Common.measure_generators sim gens ~warmup:(Time.ms 50) ~window;
  let achieved = List.fold_left (fun a g -> a +. Load_gen.achieved_iops g) 0.0 gens in
  let p95 =
    List.fold_left
      (fun a g -> if Reflex_stats.Hdr_histogram.count (Load_gen.reads g) = 0 then a else Float.max a (Load_gen.p95_read_us g))
      0.0 gens
  in
  (achieved, p95)

let reflex_point ~threads ~rate ~window =
  let w = Common.make_reflex ~n_threads:threads () in
  let clients =
    List.init n_client_threads (fun i -> Common.client_of w ~tenant:(i + 1) ())
  in
  let until = Time.add (Sim.now w.Common.sim) (Time.sec 10) in
  let gens =
    List.mapi
      (fun i client ->
        Load_gen.open_loop w.Common.sim ~client
          ~rate:(rate /. float_of_int n_client_threads)
          ~read_ratio:1.0 ~bytes ~until
          ~seed:(Int64.of_int (1001 + i))
          ())
      clients
  in
  drive w.Common.sim gens ~window

let libaio_point ~threads ~rate ~window =
  let w = Common.make_baseline ~kind:Reflex_baselines.Baseline_server.Libaio ~n_threads:threads () in
  let clients =
    List.init n_client_threads (fun i ->
        ignore i;
        Common.client_of_baseline w ~stack:Stack_model.ix_client ~tenant:(i + 1) ())
  in
  let until = Time.add (Sim.now w.Common.bsim) (Time.sec 10) in
  let gens =
    List.mapi
      (fun i client ->
        Load_gen.open_loop w.Common.bsim ~client
          ~rate:(rate /. float_of_int n_client_threads)
          ~read_ratio:1.0 ~bytes ~until
          ~seed:(Int64.of_int (2001 + i))
          ())
      clients
  in
  drive w.Common.bsim gens ~window

let local_point ~threads ~rate ~window =
  let sim = Sim.create () in
  let local = Reflex_baselines.Local.create sim ~n_threads:threads () in
  let hist = Reflex_stats.Hdr_histogram.create () in
  let prng = Prng.create 0x414_0001L in
  let completions = ref 0 in
  let warmup = Time.ms 50 in
  let stop = Time.add warmup window in
  let rec arrival () =
    if Time.(Sim.now sim <= stop) then begin
      let issued = Sim.now sim in
      Reflex_baselines.Local.submit local ~kind:Reflex_flash.Io_op.Read ~bytes (fun ~latency ->
          if Time.(issued >= warmup) && Time.(Sim.now sim <= stop) then begin
            incr completions;
            Reflex_stats.Hdr_histogram.record hist latency
          end);
      let gap = Time.max (Time.ns 1) (Time.of_float_ns (Prng.exponential prng ~mean:(1e9 /. rate))) in
      ignore (Sim.after sim gap arrival)
    end
  in
  ignore (Sim.at sim Time.zero arrival);
  ignore (Sim.run ~until:(Time.add stop (Time.ms 20)) sim);
  let achieved = float_of_int !completions /. Time.to_float_sec window in
  let p95 =
    if Reflex_stats.Hdr_histogram.count hist = 0 then Float.nan
    else Reflex_stats.Hdr_histogram.percentile_us hist 95.0
  in
  (achieved, p95)

let run ?(mode = Common.Quick) () =
  let window = Common.window mode in
  let sweeps =
    [
      ("Local", 1, [ 200e3; 400e3; 600e3; 800e3; 900e3 ]);
      ("Local", 2, [ 400e3; 800e3; 1000e3; 1100e3 ]);
      ("ReFlex", 1, [ 200e3; 400e3; 600e3; 800e3; 880e3 ]);
      ("ReFlex", 2, [ 400e3; 800e3; 1000e3; 1100e3 ]);
      ("Libaio", 1, [ 25e3; 50e3; 70e3; 80e3 ]);
      ("Libaio", 2, [ 50e3; 100e3; 140e3; 160e3 ]);
    ]
  in
  (* Each (system, threads, rate) point builds a fresh world — fan out. *)
  let points =
    List.concat_map
      (fun (system, threads, rates) -> List.map (fun rate -> (system, threads, rate)) rates)
      sweeps
  in
  Runner.map
    (fun (system, threads, rate) ->
      let achieved, p95 =
        match system with
        | "Local" -> local_point ~threads ~rate ~window
        | "ReFlex" -> reflex_point ~threads ~rate ~window
        | _ -> libaio_point ~threads ~rate ~window
      in
      {
        system;
        threads;
        offered_kiops = rate /. 1e3;
        achieved_kiops = achieved /. 1e3;
        p95_us = p95;
      })
    points

let to_table rows =
  let t =
    Table.create ~title:"Figure 4: p95 latency vs throughput, 1KB read-only"
      ~columns:[ "system"; "threads"; "offered KIOPS"; "achieved KIOPS"; "p95 (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.system;
          Table.cell_i r.threads;
          Table.cell_f r.offered_kiops;
          Table.cell_f r.achieved_kiops;
          Table.cell_f r.p95_us;
        ])
    rows;
  t

(* The paper's headline: one ReFlex core serves ~850K 1KB read IOPS. *)
let paper_kiops = 850.0

let checks rows =
  let one_core = List.filter (fun r -> r.system = "ReFlex" && r.threads = 1) rows in
  let peak = List.fold_left (fun acc r -> Float.max acc r.achieved_kiops) 0.0 one_core in
  [ Identity.within "Fig 4 ReFlex one-core peak (KIOPS)" ~paper:paper_kiops ~sim:peak ~tol:0.05 ]
