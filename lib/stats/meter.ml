open Reflex_engine

type t = {
  sim : Sim.t;
  mutable started : Time.t;
  mutable window_start : Time.t;
  mutable total : float;
  mutable window : float;
}

let create sim =
  let now = Sim.now sim in
  { sim; started = now; window_start = now; total = 0.0; window = 0.0 }

let mark t ?(n = 1) () =
  t.total <- t.total +. float_of_int n;
  t.window <- t.window +. float_of_int n

let count t = t.total

let rate t =
  let elapsed = Time.to_float_sec (Time.diff (Sim.now t.sim) t.started) in
  if elapsed <= 0.0 then 0.0 else t.total /. elapsed

let checkpoint t =
  let now = Sim.now t.sim in
  let elapsed = Time.to_float_sec (Time.diff now t.window_start) in
  let r = if elapsed <= 0.0 then 0.0 else t.window /. elapsed in
  t.window_start <- now;
  t.window <- 0.0;
  r

let reset t =
  let now = Sim.now t.sim in
  t.started <- now;
  t.window_start <- now;
  t.total <- 0.0;
  t.window <- 0.0
