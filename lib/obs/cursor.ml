(* The bookkeeping every fixed-capacity ring shares.  Records live in the
   owner's parallel arrays (no per-record boxing); wraparound overwrites
   the oldest, keeping the newest [capacity]. *)

type t = { capacity : int; mutable next : int; mutable total : int }

let create name capacity =
  if capacity < 1 then invalid_arg (name ^ ".create: capacity < 1");
  { capacity; next = 0; total = 0 }

let advance c =
  let i = c.next in
  let j = i + 1 in
  c.next <- (if j = c.capacity then 0 else j);
  c.total <- c.total + 1;
  i
[@@inline]

let capacity c = c.capacity
let total c = c.total
let length c = if c.total < c.capacity then c.total else c.capacity
let dropped c = if c.total > c.capacity then c.total - c.capacity else 0

let iter c f =
  let start = if c.total <= c.capacity then 0 else c.next in
  for k = 0 to length c - 1 do
    let i = start + k in
    f (if i >= c.capacity then i - c.capacity else i)
  done
