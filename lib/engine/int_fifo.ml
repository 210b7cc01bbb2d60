type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }
let length t = t.len

(* Cold path: double the ring, unwrapping it to start at 0. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
  for k = 0 to t.len - 1 do
    buf.(k) <- t.buf.((t.head + k) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Int_fifo.peek: empty";
  t.buf.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Int_fifo.pop: empty";
  let x = t.buf.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x
