(* The acceptance mechanism shared by the chaos, monitor, obs and rack
   scenarios: every predicate a scenario asserts is a named check, and
   determinism is two more checks over the scenario's rendered output —
   a same-seed serial rerun, and two renders racing on two domains under
   [Runner.map ~jobs:2].  A render is a digest of the whole simulation,
   so byte equality is the strongest identity claim available. *)

type check = { name : string; ok : bool }

type report = { text : string; checks : check list }

let check name ok = { name; ok }
let all_ok checks = List.for_all (fun c -> c.ok) checks
let exit_code checks = if all_ok checks then 0 else 1

let lines checks =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "  %-44s %s\n" c.name (if c.ok then "PASS" else "FAIL")) checks)

let verify ~base render =
  let again = render () in
  let par = Runner.map ~jobs:2 render [ (); () ] in
  [
    check "same-seed rerun byte-identical" (String.equal base again);
    check "serial vs --jobs 2 byte-identical" (List.for_all (String.equal base) par);
  ]

let debrief ~text ~acceptance identity =
  { text = text ^ "determinism:\n" ^ lines identity; checks = acceptance @ identity }
