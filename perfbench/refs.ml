(* The paper's reference values that [paper_err_pct] is computed against,
   one row per simulated quantity.  The Table 2 rows are read from
   [Reflex_experiments.Table2.paper]; the rest are the values the paper
   states in its text and figures.  [rack_po2c] has no row: the rack layer
   goes beyond the paper, so that workload is unvalidated and gets no
   error figure. *)

type row = {
  workload : string;
  key : string;  (** the simulated quantity, as the workload names it *)
  section : string;
  artifact : string;
  value : float;
  unit : string;
}

let ix_row =
  List.find (fun r -> r.Reflex_experiments.Table2.path = "ReFlex (IX)")
    Reflex_experiments.Table2.paper

let table2 key value =
  { workload = "read_sweep"; key; section = "§5.3"; artifact = "Table 2, ReFlex (IX)"; value; unit = "us" }

let rows =
  let open Reflex_experiments.Table2 in
  [
    table2 "read_avg_us" ix_row.read_avg_us;
    table2 "read_p95_us" ix_row.read_p95_us;
    table2 "write_avg_us" ix_row.write_avg_us;
    table2 "write_p95_us" ix_row.write_p95_us;
    { workload = "read_sweep"; key = "iops_1core"; section = "§5.3"; artifact = "Fig 4, 1 thread";
      value = 850e3; unit = "IOPS" };
    { workload = "qos_mix"; key = "a_iops"; section = "§5.4"; artifact = "Fig 5, scenario 1, A";
      value = 120e3; unit = "IOPS" };
    { workload = "qos_mix"; key = "b_iops"; section = "§5.4"; artifact = "Fig 5, scenario 1, B";
      value = 70e3; unit = "IOPS" };
    { workload = "qos_mix"; key = "c_iops"; section = "§5.4"; artifact = "Fig 5, scenario 1, C";
      value = 36e3; unit = "IOPS" };
    { workload = "qos_mix"; key = "d_iops"; section = "§5.4"; artifact = "Fig 5, scenario 1, D";
      value = 7e3; unit = "IOPS" };
    { workload = "tenant_scale"; key = "iops_2500"; section = "§5.5"; artifact = "Fig 6b, 1 core";
      value = 250e3; unit = "IOPS" };
  ]

let for_workload w = List.filter (fun r -> r.workload = w) rows

(* Mean relative error in percent over the workload's rows; [sim] maps a
   row key to the simulated value.  [None] when the workload has no
   reference. *)
let err_pct w sim =
  match for_workload w with
  | [] -> None
  | rs ->
    let errs = List.map (fun r -> Float.abs (sim r.key -. r.value) /. r.value) rs in
    Some (100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs))
