(* Fixture: alias-resolved telemetry call, unguarded where it is made. *)
module T = Telemetry

let emit s = T.incr s "requests"
let tick s = emit s
let () = ignore tick
