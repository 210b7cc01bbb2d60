(* Clean twin: the function that makes the alias-resolved telemetry
   call crosses the enabled-guard itself. *)
module T = Telemetry

let tel_on = false
let emit s = if tel_on then T.incr s "requests"
