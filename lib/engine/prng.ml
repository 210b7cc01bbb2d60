(* The SplitMix64 state lives unboxed in an 8-byte [Bytes.t], read and
   written with the unaligned 64-bit primitives: a mutable [int64] field
   would box on every store.  [bits64], [float] and [normal] are inlined
   into every draw below, so the arithmetic stays in registers: [int]
   allocates nothing, and a float draw boxes only the value it returns
   to another module. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let[@inline] bits64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t = create (bits64 t)

(* 53 high-quality bits -> [0,1) *)
let[@inline] float t =
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

let[@inline] normal t ~mean ~stddev =
  let u1 = 1.0 -. float t in
  let u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~median ~sigma =
  median *. exp (normal t ~mean:0.0 ~stddev:sigma)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
