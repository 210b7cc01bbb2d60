type t = { first : int; mutable free : int array; mutable len : int }

let create first = { first; free = [||]; len = 0 }

let capacity t = Array.length t.free

let extend a ncap fill =
  let na = Array.make ncap fill in
  Array.blit a 0 na 0 (Array.length a);
  na

(* Cold path: double the capacity and push the fresh slots highest
   first, so the lowest pops first. *)
let grow t =
  let cap = Array.length t.free in
  let ncap = if cap = 0 then t.first else 2 * cap in
  t.free <- extend t.free ncap 0;
  for slot = ncap - 1 downto cap do
    t.free.(t.len) <- slot;
    t.len <- t.len + 1
  done

let alloc t =
  if t.len = 0 then grow t;
  t.len <- t.len - 1;
  t.free.(t.len)

let free t slot =
  t.free.(t.len) <- slot;
  t.len <- t.len + 1
