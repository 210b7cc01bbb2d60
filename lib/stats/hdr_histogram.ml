(* Buckets: values < 2^sub_bits land in a linear region with exact
   resolution; above that, each power-of-two range is split into
   2^sub_bits sub-buckets, giving bounded relative error. *)

let sub_bits = 6
let sub_count = 1 lsl sub_bits (* 64 *)
let max_exponent = 62

type t = {
  counts : int array; (* (exponent - sub_bits + 1) * sub_count cells *)
  mutable total : int;
  sum : Reflex_engine.Cell.t; (* flat: recording does not box *)
  (* Extrema as native ints, so the int record path stores no box. *)
  mutable min_v : int;
  mutable max_v : int;
}

let n_cells = (max_exponent - sub_bits + 1) * sub_count

let create () =
  {
    counts = Array.make n_cells 0;
    total = 0;
    sum = { Reflex_engine.Cell.v = 0.0 };
    min_v = max_int;
    max_v = 0;
  }

(* Index of the bucket containing [vi] >= 0: the bucket math runs on a
   native int (an int64 shift would box an intermediate on the
   per-request latency-record path). *)
(* exponent = position of the highest set bit; lives at toplevel so the
   per-record path does not allocate a closure for it *)
let rec msb acc x = if x <= 1 then acc else msb (acc + 1) (x lsr 1)

let index_of_int vi =
  if vi < sub_count then vi
  else begin
    let e = msb 0 vi in
    let shift = e - sub_bits in
    let sub = (vi lsr shift) land (sub_count - 1) in
    (((e - sub_bits) + 1) * sub_count) + sub
  end

(* [v] as a native int: exact for v < 2^62; larger values clamp to
   [max_int] (0x3FFF_FFFF_FFFF_FFFFL on 64-bit), the top bucket. *)
let clamp v = if Int64.compare v 0x3FFF_FFFF_FFFF_FFFFL >= 0 then max_int else Int64.to_int v

let index_of v = index_of_int (clamp v)

(* Upper edge (inclusive) of bucket [i]: the value reported for percentiles. *)
let value_of i =
  if i < sub_count then Int64.of_int i
  else begin
    let range = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    let e = range + sub_bits in
    let base = Int64.shift_left 1L e in
    let step = Int64.shift_left 1L (e - sub_bits) in
    (* upper edge of sub-bucket: base + (sub+1)*step - 1 *)
    Int64.sub (Int64.add base (Int64.mul (Int64.of_int (sub + 1)) step)) 1L
  end

(* The one record path, on a native int: it stores no box. *)
let record_int_n t v n =
  if v < 0 then invalid_arg "Hdr_histogram.record: negative";
  if n < 0 then invalid_arg "Hdr_histogram.record_n: negative count";
  if n > 0 then begin
    let i = index_of_int v in
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n;
    t.sum.v <- t.sum.v +. (float_of_int v *. float_of_int n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record_int t v = record_int_n t v 1

let record_n t v n =
  if Int64.compare v 0L < 0 then invalid_arg "Hdr_histogram.record: negative";
  record_int_n t (clamp v) n

let record t v = record_n t v 1
let count t = t.total

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hdr_histogram.percentile: out of range";
  if t.total = 0 then 0L (* defined: empty histogram reports 0 for every p *)
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 in
    let max_v = Int64.of_int t.max_v and min_v = Int64.of_int t.min_v in
    let result = ref max_v in
    (try
       for i = 0 to n_cells - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= rank then begin
           result := value_of i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Clamp into [min_v, max_v]: bucket edges never over- or under-shoot
       the observed range, so a single-sample histogram reports exactly
       that sample for every percentile. *)
    if Int64.compare !result max_v > 0 then max_v
    else if Int64.compare !result min_v < 0 then min_v
    else !result
  end

let mean t = if t.total = 0 then 0.0 else t.sum.v /. float_of_int t.total
let min_value t = if t.total = 0 then 0L else Int64.of_int t.min_v
let max_value t = Int64.of_int t.max_v

(* Lower edge (inclusive) of bucket [i] — the counterpart of [value_of]. *)
let low_value_of i =
  if i < sub_count then Int64.of_int i
  else begin
    let range = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    let e = range + sub_bits in
    let base = Int64.shift_left 1L e in
    let step = Int64.shift_left 1L (e - sub_bits) in
    Int64.add base (Int64.mul (Int64.of_int sub) step)
  end

let copy t =
  {
    counts = Array.copy t.counts;
    total = t.total;
    sum = { Reflex_engine.Cell.v = t.sum.v };
    min_v = t.min_v;
    max_v = t.max_v;
  }

(* Snapshot delta: the histogram of exactly the values recorded into [t]
   after [since] was captured ([since] must be an earlier snapshot of the
   same recording stream, i.e. pointwise [since.counts <= t.counts]).
   Bucket counts and totals are exact; the delta's min/max are only known
   to bucket resolution, so they are reconstructed from the occupied
   bucket edges and clamped into [t]'s observed range (delta values are a
   subset of [t]'s values). *)
let diff t ~since =
  let d = create () in
  let lo = ref max_int in
  let hi = ref 0 in
  let total = ref 0 in
  for i = 0 to n_cells - 1 do
    let c = t.counts.(i) - since.counts.(i) in
    if c < 0 then
      invalid_arg "Hdr_histogram.diff: since is not an earlier snapshot of this histogram";
    if c > 0 then begin
      d.counts.(i) <- c;
      total := !total + c;
      let l = clamp (low_value_of i) in
      if l < !lo then lo := l;
      let h = clamp (value_of i) in
      if h > !hi then hi := h
    end
  done;
  d.total <- !total;
  if !total > 0 then begin
    d.sum.v <- Float.max 0.0 (t.sum.v -. since.sum.v);
    d.min_v <- max !lo t.min_v;
    d.max_v <- min !hi t.max_v
  end;
  d

(* Recorded values strictly above the bucket containing [v]: counts are
   bucketed, so the answer is exact at bucket granularity (values sharing
   [v]'s bucket are counted as "not above" — a relative error bounded by
   the bucket width, ~1.5% with 6 sub-bucket bits, and exact for
   [v < 64]). *)
let count_above t v =
  if Int64.compare v 0L < 0 then t.total
  else begin
    let start = index_of v + 1 in
    let acc = ref 0 in
    for i = start to n_cells - 1 do
      acc := !acc + t.counts.(i)
    done;
    !acc
  end

let merge ~dst ~src =
  for i = 0 to n_cells - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.total <- dst.total + src.total;
  dst.sum.v <- dst.sum.v +. src.sum.v;
  if src.min_v < dst.min_v then dst.min_v <- src.min_v;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

let reset t =
  Array.fill t.counts 0 n_cells 0;
  t.total <- 0;
  t.sum.v <- 0.0;
  t.min_v <- max_int;
  t.max_v <- 0

let percentile_us t p = Int64.to_float (percentile t p) /. 1e3
let mean_us t = mean t /. 1e3
