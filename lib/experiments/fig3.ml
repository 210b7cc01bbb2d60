open Reflex_engine
open Reflex_flash
open Reflex_stats

type point = {
  device : string;
  label : string;
  weighted_ktokens : float;
  p95_read_us : float;
}

type fit_row = {
  fdevice : string;
  write_cost : float;
  ro_read_cost : float;
  token_rate_at_1ms : float;
  r2 : float;
}

(* Token cost of the offered mix under the device's nominal cost model
   (what the x-axis of Figure 3 plots). *)
let weighted_rate profile ~read_ratio ~bytes ~rate =
  let cm = Reflex_qos.Cost_model.of_profile profile in
  let sectors = float_of_int (Io_op.sectors_of_bytes bytes) in
  let read_cost =
    if read_ratio >= 1.0 then cm.Reflex_qos.Cost_model.ro_read_cost *. sectors else sectors
  in
  rate
  *. ((read_ratio *. read_cost)
     +. ((1.0 -. read_ratio) *. cm.Reflex_qos.Cost_model.write_cost *. sectors))

(* The paper's calibrated costs, C(write) per device and C(read,100%) on
   device A: they title the fit table and are its acceptance rows. *)
let paper_write_cost = [ ("A", 10.0); ("B", 20.0); ("C", 16.0) ]
let paper_ro_read_cost = 0.5

let workloads =
  [
    ("100%rd (1KB)", 1.0, 1024);
    ("100%rd (4KB)", 1.0, 4096);
    ("100%rd (32KB)", 1.0, 32768);
    ("99%rd (4KB)", 0.99, 4096);
    ("95%rd (4KB)", 0.95, 4096);
    ("90%rd (4KB)", 0.9, 4096);
    ("75%rd (4KB)", 0.75, 4096);
    ("50%rd (4KB)", 0.5, 4096);
  ]

let run ?(mode = Common.Quick) () =
  let config =
    { Calibrate.default_config with duration = Common.window mode; warmup = Time.ms 50 }
  in
  let n_points = match mode with Common.Quick -> 4 | Common.Full -> 8 in
  (* Enumerate every (device, workload, load step) sweep point serially
     (cheap arithmetic), then measure them all in parallel. *)
  let point_specs =
    List.concat_map
      (fun profile ->
        let cap = Device_profile.token_capacity profile in
        List.concat_map
          (fun (label, read_ratio, bytes) ->
            (* Sweep offered load so weighted tokens reach ~1.2x capacity. *)
            let sectors = float_of_int (Io_op.sectors_of_bytes bytes) in
            let per_io_tokens =
              if read_ratio >= 1.0 then sectors /. profile.Device_profile.ro_speedup
              else
                (read_ratio *. sectors)
                +. ((1.0 -. read_ratio) *. profile.Device_profile.write_cost *. sectors)
            in
            let top_rate = 1.2 *. cap /. per_io_tokens in
            List.map
              (fun i ->
                let rate = top_rate *. float_of_int i /. float_of_int n_points in
                (profile, label, read_ratio, bytes, rate))
              (List.init n_points (fun i -> i + 1)))
          workloads)
      Device_profile.all
  in
  let points =
    Runner.map
      (fun (profile, label, read_ratio, bytes, rate) ->
        let p = Calibrate.measure ~config profile ~read_ratio ~bytes ~rate in
        {
          device = profile.Device_profile.name;
          label;
          weighted_ktokens = weighted_rate profile ~read_ratio ~bytes ~rate /. 1e3;
          p95_read_us = p.Calibrate.p95_read_us;
        })
      point_specs
  in
  let fits =
    Runner.map
      (fun profile ->
        let f =
          Calibrate.fit_cost_model ~config
            ~read_ratios:[ 0.95; 0.9; 0.75; 0.5 ]
            profile ~p95_target_us:1000.0
        in
        {
          fdevice = profile.Device_profile.name;
          write_cost = f.Calibrate.write_cost;
          ro_read_cost = f.Calibrate.ro_read_cost;
          token_rate_at_1ms = f.Calibrate.token_rate;
          r2 = f.Calibrate.fit_r2;
        })
      Device_profile.all
  in
  (points, fits)

let to_tables (points, fits) =
  let curves =
    Table.create ~title:"Figure 3: p95 read latency vs weighted ktokens/s (devices A/B/C)"
      ~columns:[ "device"; "workload"; "ktokens/s"; "p95 read (us)" ]
  in
  List.iter
    (fun p ->
      Table.add_row curves
        [ p.device; p.label; Table.cell_f p.weighted_ktokens; Table.cell_f p.p95_read_us ])
    points;
  let fit =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure 3 (fit): calibrated cost models — paper: C(write)=%s, C(read,100%%)=%g (A)"
           (String.concat "/" (List.map (fun (_, c) -> Printf.sprintf "%g" c) paper_write_cost))
           paper_ro_read_cost)
      ~columns:[ "device"; "C(write) tokens"; "C(read,100%)"; "ktokens/s @1ms"; "fit r^2" ]
  in
  List.iter
    (fun f ->
      Table.add_row fit
        [
          f.fdevice;
          Table.cell_f f.write_cost;
          Table.cell_f ~decimals:2 f.ro_read_cost;
          Table.cell_f (f.token_rate_at_1ms /. 1e3);
          Table.cell_f ~decimals:3 f.r2;
        ])
    fits;
  [ curves; fit ]

let checks (_, fits) =
  let fit device = List.find (fun f -> f.fdevice = device) fits in
  List.map
    (fun (device, paper) ->
      Identity.within (Printf.sprintf "Fig 3 C(write) device %s" device) ~paper
        ~sim:(fit device).write_cost ~tol:0.15)
    paper_write_cost
  @ [
      Identity.within "Fig 3 C(read,100%) device A" ~paper:paper_ro_read_cost
        ~sim:(fit "A").ro_read_cost ~tol:0.10;
    ]
