open Reflex_flash

type t = { write_cost : float; ro_read_cost : float }

let of_profile (p : Device_profile.t) =
  { write_cost = p.write_cost; ro_read_cost = 1.0 /. p.ro_speedup }

let request_cost t ~kind ~bytes ~read_only =
  let sectors = float_of_int (Io_op.sectors_of_bytes bytes) in
  match (kind : Io_op.kind) with
  | Read -> sectors *. (if read_only then t.ro_read_cost else 1.0)
  | Write -> sectors *. t.write_cost

let weighted_rate t ~iops ~read_ratio =
  if read_ratio < 0.0 || read_ratio > 1.0 then invalid_arg "Cost_model.weighted_rate: read_ratio";
  iops *. (read_ratio +. ((1.0 -. read_ratio) *. t.write_cost))
