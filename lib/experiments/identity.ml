(* The acceptance mechanism shared by the chaos, monitor, obs and rack
   scenarios: every predicate a scenario asserts is a named check, and
   [reflex_sim] exits with their verdict. *)

type check = { name : string; ok : bool }

let check name ok = { name; ok }
let all_ok checks = List.for_all (fun c -> c.ok) checks
let exit_code checks = if all_ok checks then 0 else 1

let lines checks =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "  %-44s %s\n" c.name (if c.ok then "PASS" else "FAIL")) checks)
