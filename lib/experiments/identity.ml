(* The acceptance mechanism shared by the scenarios and the paper
   figures: every predicate or paper claim they assert is a named check,
   and [reflex_sim] exits with their verdict. *)

type check = { name : string; ok : bool }

let check name ok = { name; ok }

let within claim ~paper ~sim ~tol =
  let err = abs_float (sim -. paper) /. paper in
  check
    (Printf.sprintf "%s: paper %g, simulated %g, tolerance %g%% (off by %.1f%%)" claim paper sim
       (100.0 *. tol) (100.0 *. err))
    (err <= tol)

let all_ok checks = List.for_all (fun c -> c.ok) checks
let exit_code checks = if all_ok checks then 0 else 1

let lines checks =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "  %-44s %s\n" c.name (if c.ok then "PASS" else "FAIL")) checks)
