(* Flat open-addressing (lane, tenant, req) -> int table: linear probing
   with backward-shift deletion, no allocation on put/find/remove (a
   Hashtbl costs a bucket cons per insert and an option box per lookup).
   Keys are stored whole in three parallel arrays and compared whole, so
   distinct requests never alias; lanes are non-negative and [-1] marks
   an empty cell.  Sized at twice the live-entry bound so the load factor
   stays below 1/2. *)

type t = { mask : int; lanes : int array; tenants : int array; reqs : int array; vals : int array }

let create cap =
  let size = ref 16 in
  while !size < 2 * cap do
    size := !size * 2
  done;
  let n = !size in
  {
    mask = n - 1;
    lanes = Array.make n (-1);
    tenants = Array.make n 0;
    reqs = Array.make n 0;
    vals = Array.make n 0;
  }

let hash mask lane tenant req =
  let h = (((lane * 0x9E37_79B1) + tenant) * 0x85EB_CA6B) + req in
  (h * 0x9E37_79B1) lsr 16 land mask

(* The probe loops live at toplevel with their parameters threaded
   explicitly: a local [let rec] would build a closure on every call. *)
let rec index_from t lane tenant req i =
  let l = t.lanes.(i) in
  if l = -1 then -1
  else if l = lane && t.tenants.(i) = tenant && t.reqs.(i) = req then i
  else index_from t lane tenant req ((i + 1) land t.mask)

let index t ~lane ~tenant ~req =
  index_from t lane tenant req (hash t.mask lane tenant req)

let rec put_from t lane tenant req v i =
  let l = t.lanes.(i) in
  if l = -1 || (l = lane && t.tenants.(i) = tenant && t.reqs.(i) = req) then begin
    t.lanes.(i) <- lane;
    t.tenants.(i) <- tenant;
    t.reqs.(i) <- req;
    t.vals.(i) <- v
  end
  else put_from t lane tenant req v ((i + 1) land t.mask)

let put t ~lane ~tenant ~req v =
  put_from t lane tenant req v (hash t.mask lane tenant req)

let find t ~lane ~tenant ~req =
  let i = index t ~lane ~tenant ~req in
  if i < 0 then -1 else t.vals.(i)

(* Backward-shift deletion: pull every displaced successor over the hole
   so probe chains never need tombstones. *)
let rec shift t hole j =
  let l = t.lanes.(j) in
  if l = -1 then t.lanes.(hole) <- -1
  else begin
    let mask = t.mask in
    let ideal = hash mask l t.tenants.(j) t.reqs.(j) in
    if (j - ideal) land mask >= (j - hole) land mask then begin
      t.lanes.(hole) <- l;
      t.tenants.(hole) <- t.tenants.(j);
      t.reqs.(hole) <- t.reqs.(j);
      t.vals.(hole) <- t.vals.(j);
      shift t j ((j + 1) land mask)
    end
    else shift t hole ((j + 1) land mask)
  end

let remove t ~lane ~tenant ~req =
  let i = index t ~lane ~tenant ~req in
  if i >= 0 then shift t i ((i + 1) land t.mask)
