open Reflex_engine
open Reflex_stats

(* Ring-buffered windowed time-series store.

   Sources are registered once and read at every [tick]: a CUMULATIVE
   source contributes the delta since the previous tick (rates), a
   HISTOGRAM source contributes the *delta histogram* between two
   mergeable snapshots (Hdr_histogram.copy/diff), so windowed p95/p99
   are exact bucket-count deltas, and a DERIVED source is computed from
   the window being closed (e.g. "violations" = count_above of the
   window's latency delta).

   The same zero-overhead-when-disabled contract as Telemetry: every
   mutating operation on the shared {!disabled} instance returns
   immediately, so a world without monitoring pays nothing.  All
   iteration orders are name-sorted, so reports are deterministic across
   runs and domains. *)

type window = {
  w_start : Time.t;
  w_stop : Time.t;
  w_values : (string * float) array; (* name-sorted *)
  w_hists : (string * Hdr_histogram.t) array; (* delta hists, name-sorted *)
}

type source =
  | Cumulative of (unit -> float) * float ref (* reader, last snapshot *)
  | Hist of Hdr_histogram.t * Hdr_histogram.t ref (* live, last snapshot *)
  | Derived of (window -> float)

type t = {
  enabled : bool;
  capacity : int;
  sources : (string, source) Hashtbl.t;
  (* Name-sorted source snapshot, rebuilt lazily on registration: [tick]
     walks these parallel arrays instead of re-sorting the Hashtbl, and
     the per-kind counts let it allocate each window's arrays at their
     exact final size. *)
  mutable src_dirty : bool;
  mutable src_names : string array;
  mutable src_srcs : source array;
  mutable n_vals : int; (* cumulative *)
  mutable n_hists : int;
  mutable n_derived : int;
  ring : window array; (* circular, [capacity] slots *)
  mutable ring_head : int; (* index of newest window when ring_len > 0 *)
  mutable ring_len : int;
  mutable closed_total : int;
  mutable last_tick : Time.t;
}

let make ~enabled ~capacity =
  let dummy =
    { w_start = Time.zero; w_stop = Time.zero; w_values = [||]; w_hists = [||] }
  in
  {
    enabled;
    capacity;
    sources = Hashtbl.create 32;
    src_dirty = false;
    src_names = [||];
    src_srcs = [||];
    n_vals = 0;
    n_hists = 0;
    n_derived = 0;
    ring = Array.make capacity dummy;
    ring_head = 0;
    ring_len = 0;
    closed_total = 0;
    last_tick = Time.zero;
  }

let disabled = make ~enabled:false ~capacity:1

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Tsdb.create: capacity < 1";
  make ~enabled:true ~capacity

let check_free t name =
  if Hashtbl.mem t.sources name then invalid_arg ("Tsdb: duplicate source " ^ name)

let register_cumulative t name f =
  if t.enabled then begin
    check_free t name;
    Hashtbl.replace t.sources name (Cumulative (f, ref (f ())));
    t.src_dirty <- true
  end

let register_hist t name h =
  if t.enabled then begin
    check_free t name;
    Hashtbl.replace t.sources name (Hist (h, ref (Hdr_histogram.copy h)));
    t.src_dirty <- true
  end

let register_derived t name f =
  if t.enabled then begin
    check_free t name;
    Hashtbl.replace t.sources name (Derived f);
    t.src_dirty <- true
  end

(* Rebuild the sorted snapshot arrays.  Cold: runs once per registration
   epoch, not per tick. *)
let refresh_sources t =
  let kvs =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sources []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let n = List.length kvs in
  let names = Array.make n "" in
  let srcs = Array.make n (Derived (fun _ -> 0.0)) in
  let nv = ref 0 and nh = ref 0 and nd = ref 0 in
  List.iteri
    (fun i (k, s) ->
      names.(i) <- k;
      srcs.(i) <- s;
      match s with
      | Cumulative _ -> incr nv
      | Hist _ -> incr nh
      | Derived _ -> incr nd)
    kvs;
  t.src_names <- names;
  t.src_srcs <- srcs;
  t.n_vals <- !nv;
  t.n_hists <- !nh;
  t.n_derived <- !nd;
  t.src_dirty <- false

let tick t ~now =
  if t.enabled && Time.(now > t.last_tick) then begin
    if t.src_dirty then refresh_sources t;
    let n = Array.length t.src_names in
    (* Pass 1: base sources (cumulative deltas, hist deltas)
       filled into exact-size arrays in one name-ordered sweep.  The
       arrays are owned by the window being closed, so they are fresh
       per tick by design — what the cache removes is the per-tick
       Hashtbl fold, sort and list churn. *)
    let values = Array.make t.n_vals ("", 0.0) in
    let hists =
      if t.n_hists = 0 then [||] else Array.make t.n_hists ("", Hdr_histogram.create ())
    in
    let vi = ref 0 and hi = ref 0 in
    for i = 0 to n - 1 do
      let name = t.src_names.(i) in
      match t.src_srcs.(i) with
      | Cumulative (f, last) ->
        let v = f () in
        values.(!vi) <- (name, v -. !last);
        incr vi;
        last := v
      | Hist (live, last) ->
        let snap = Hdr_histogram.copy live in
        hists.(!hi) <- (name, Hdr_histogram.diff snap ~since:!last);
        incr hi;
        last := snap
      | Derived _ -> ()
    done;
    let base = { w_start = t.last_tick; w_stop = now; w_values = values; w_hists = hists } in
    (* Pass 2: derived sources see the freshly-closed base window; the
       final window merges the two already-sorted runs. *)
    let w =
      if t.n_derived = 0 then base
      else begin
        let d = Array.make t.n_derived ("", 0.0) in
        let di = ref 0 in
        for i = 0 to n - 1 do
          match t.src_srcs.(i) with
          | Derived f ->
            d.(!di) <- (t.src_names.(i), f base);
            incr di
          | _ -> ()
        done;
        let all = Array.make (t.n_vals + t.n_derived) ("", 0.0) in
        let a = ref 0 and b = ref 0 in
        for k = 0 to Array.length all - 1 do
          let take_base =
            !b >= t.n_derived || (!a < t.n_vals && fst values.(!a) <= fst d.(!b))
          in
          if take_base then begin
            all.(k) <- values.(!a);
            incr a
          end
          else begin
            all.(k) <- d.(!b);
            incr b
          end
        done;
        { base with w_values = all }
      end
    in
    t.ring_head <- (t.ring_head + 1) mod t.capacity;
    t.ring.(t.ring_head) <- w;
    if t.ring_len < t.capacity then t.ring_len <- t.ring_len + 1;
    t.closed_total <- t.closed_total + 1;
    t.last_tick <- now
  end

let windows_closed t = t.closed_total
let last t = if t.ring_len = 0 then None else Some t.ring.(t.ring_head)

(* Newest [k] windows, oldest first. *)
let last_n t k =
  let k = if k < 0 then 0 else if k > t.ring_len then t.ring_len else k in
  let rec build acc i =
    if i >= k then acc
    else build (t.ring.((t.ring_head - i + t.capacity) mod t.capacity) :: acc) (i + 1)
  in
  build [] 0

let assoc_of name arr =
  let n = Array.length arr in
  let rec bsearch lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let k, v = arr.(mid) in
      let c = compare name k in
      if c = 0 then Some v else if c < 0 then bsearch lo mid else bsearch (mid + 1) hi
  in
  bsearch 0 n

let value w name = assoc_of name w.w_values
let hist w name = assoc_of name w.w_hists

(* Sum of a value series over the newest [k] windows (missing names count
   as 0 — a source registered mid-run simply contributes nothing to
   earlier windows). *)
let sum_last t ~k name =
  List.fold_left
    (fun acc w -> match value w name with Some v -> acc +. v | None -> acc)
    0.0 (last_n t k)

let span_us w = Time.to_float_us (Time.diff w.w_stop w.w_start)
