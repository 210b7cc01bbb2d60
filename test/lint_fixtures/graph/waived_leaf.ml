(* Fixture: a second deliberate nondeterminism source (det/random is
   allowed for this file in graph.manifest), reached by a waived sink. *)
let wnoise () = Random.int 10
