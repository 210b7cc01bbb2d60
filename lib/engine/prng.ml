(* Zipf sampling precomputes a CDF prefix table; it is cached on the
   stream itself (not in a global table) so that Prng instances owned by
   different Runner.map domains never share mutable state. *)
type zipf_cache = { zn : int; ztheta : float; cdf : float array }

type t = { mutable state : int64; mutable zcache : zipf_cache option }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed; zcache = None }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = create (bits64 t)

(* 53 high-quality bits -> [0,1) *)
let float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float_range t lo hi = lo +. ((hi -. lo) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Prng.int";
  (* Rejection-free for our purposes: modulo bias is negligible for n << 2^63. *)
  let v = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem v (Int64.of_int n))

let bool t p = float t < p

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

let normal t ~mean ~stddev =
  let u1 = 1.0 -. float t in
  let u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~median ~sigma =
  median *. exp (normal t ~mean:0.0 ~stddev:sigma)

(* Zipf sampling by inverting the generalized harmonic CDF with binary
   search over a lazily cached prefix table.  One cache slot per stream:
   a given workload stream samples one (n, theta) shape, and keeping the
   slot on [t] (rather than a process-global table) makes concurrent
   sampling from per-domain streams race-free by construction. *)
let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Prng.zipf";
  let cache =
    match t.zcache with
    | Some c when c.zn = n && Float.abs (c.ztheta -. theta) < 1e-9 -> c
    | _ ->
      let cdf = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
        cdf.(i) <- !acc
      done;
      let total = !acc in
      for i = 0 to n - 1 do
        cdf.(i) <- cdf.(i) /. total
      done;
      let c = { zn = n; ztheta = theta; cdf } in
      t.zcache <- Some c;
      c
  in
  let u = float t in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cache.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
