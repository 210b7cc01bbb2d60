(* Deliberately violates guard/telemetry (line 4) through a file-local
   module alias: the record call is not under an enabled-guard. *)
module T = Telemetry
let emit s = T.incr s "requests"
