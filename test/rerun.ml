(* The identity helper: a scenario render must be byte-identical on a
   same-seed serial rerun and on two renders racing under
   [Runner.map ~jobs:2].  A render is a digest of the whole simulation,
   so byte equality is the strongest identity claim one binary can make
   about itself; the pin table (test_pins.ml) holds the same renders
   across commits. *)

open Reflex_experiments

(* The two legs as named checks: [render] runs once more serially and
   twice concurrently, each output compared with [base]. *)
let legs ~base render =
  let again = render () in
  let par = Runner.map ~jobs:2 render [ (); () ] in
  [
    Identity.check "same-seed rerun byte-identical" (String.equal base again);
    Identity.check "serial vs --jobs 2 byte-identical" (List.for_all (String.equal base) par);
  ]

let check ~base render =
  List.iter (fun (c : Identity.check) -> Alcotest.(check bool) c.name true c.ok) (legs ~base render)
