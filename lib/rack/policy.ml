open Reflex_engine

type kind = Random | Round_robin | Jsq | Po2c | Oracle

let all = [ Random; Round_robin; Jsq; Po2c; Oracle ]

let kind_name = function
  | Random -> "random"
  | Round_robin -> "round-robin"
  | Jsq -> "jsq"
  | Po2c -> "po2c"
  | Oracle -> "oracle"

let kind_index = function
  | Random -> 0
  | Round_robin -> 1
  | Jsq -> 2
  | Po2c -> 3
  | Oracle -> 4

type t = { k : kind; prng : Prng.t; mutable cursor : int }

let create k ~prng = { k; prng; cursor = 0 }
let kind t = t.k

(* Argmin of [depth] over [candidates]; ties toward the lowest server
   index regardless of candidate order. *)
let argmin candidates depth =
  let best = ref candidates.(0) in
  let best_d = ref depth.(candidates.(0)) in
  for i = 1 to Array.length candidates - 1 do
    let c = candidates.(i) in
    let d = depth.(c) in
    if d < !best_d || (d = !best_d && c < !best) then begin
      best := c;
      best_d := d
    end
  done;
  !best

let pick t ~candidates ~sampled ~exact =
  let n = Array.length candidates in
  if n = 0 then invalid_arg "Policy.pick: empty candidate set";
  if n = 1 then candidates.(0)
  else
    match t.k with
    | Random -> candidates.(Prng.int t.prng n)
    | Round_robin ->
      let c = candidates.(t.cursor mod n) in
      t.cursor <- (t.cursor + 1) mod n;
      c
    | Jsq -> argmin candidates sampled
    | Po2c ->
      let a = candidates.(Prng.int t.prng n) in
      let b = candidates.(Prng.int t.prng n) in
      if sampled.(b) < sampled.(a) || (sampled.(b) = sampled.(a) && b < a) then b else a
    | Oracle -> argmin candidates exact
