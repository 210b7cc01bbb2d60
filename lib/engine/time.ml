type t = int64

let zero = 0L
let infinity = Int64.max_int
external ns : int -> t = "%int64_of_int"
let us x = Int64.mul (Int64.of_int x) 1_000L
let ms x = Int64.mul (Int64.of_int x) 1_000_000L
let sec x = Int64.mul (Int64.of_int x) 1_000_000_000L
let of_float_ns x = Int64.of_float (Float.round x)
let of_float_us x = of_float_ns (x *. 1e3)
let to_float_ns t = Int64.to_float t
let to_float_us t = Int64.to_float t /. 1e3
let to_float_ms t = Int64.to_float t /. 1e6
let to_float_sec t = Int64.to_float t /. 1e9
external add : t -> t -> t = "%int64_add"
external sub : t -> t -> t = "%int64_sub"
external diff : t -> t -> t = "%int64_sub"

let scale t x = of_float_ns (Int64.to_float t *. x)

let max a b = if Int64.compare a b >= 0 then a else b
let min a b = if Int64.compare a b <= 0 then a else b
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external equal : t -> t -> bool = "%equal"

let pp fmt t =
  let f = Int64.to_float t in
  let open Stdlib in
  if Float.abs f < 1e3 then Format.fprintf fmt "%Ldns" t
  else if Float.abs f < 1e6 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if Float.abs f < 1e9 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)

let to_string t = Format.asprintf "%a" pp t
