(* Deliberately violates det/clock (lines 3 and 5). *)

let now_us () = Unix.gettimeofday () *. 1e6

let now_ns () = Monotonic_clock.now ()
