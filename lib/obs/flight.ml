open Reflex_engine

(* Always-on flight recorder.  The write path is the whole point: five
   array stores and a {!Cursor} bump into preallocated parallel arrays, no
   boxing, no branches beyond the single [on] check — cheap enough to run
   unconditionally under the scheduler round and the dataplane cycle.
   Everything stringy (fault labels, alert rule names) goes through the
   cold-path intern table so the hot record carries only ints/floats. *)

module Kind = struct
  type t =
    | Refill
    | Grant
    | Throttle
    | Deficit
    | Donate
    | Bucket_take
    | Bucket_reset
    | Idle_drain
    | Queue_depth
    | Demote
    | Fault_on
    | Fault_off
    | Alert_fire
    | Alert_resolve
    | Remediate
    | Mark
    | Migrate
    | Balance
    | Hop

  let count = 19

  let to_int = function
    | Refill -> 0
    | Grant -> 1
    | Throttle -> 2
    | Deficit -> 3
    | Donate -> 4
    | Bucket_take -> 5
    | Bucket_reset -> 6
    | Idle_drain -> 7
    | Queue_depth -> 8
    | Demote -> 9
    | Fault_on -> 10
    | Fault_off -> 11
    | Alert_fire -> 12
    | Alert_resolve -> 13
    | Remediate -> 14
    | Mark -> 15
    | Migrate -> 16
    | Balance -> 17
    | Hop -> 18

  let of_int = function
    | 0 -> Refill
    | 1 -> Grant
    | 2 -> Throttle
    | 3 -> Deficit
    | 4 -> Donate
    | 5 -> Bucket_take
    | 6 -> Bucket_reset
    | 7 -> Idle_drain
    | 8 -> Queue_depth
    | 9 -> Demote
    | 10 -> Fault_on
    | 11 -> Fault_off
    | 12 -> Alert_fire
    | 13 -> Alert_resolve
    | 14 -> Remediate
    | 15 -> Mark
    | 16 -> Migrate
    | 17 -> Balance
    | 18 -> Hop
    | n -> invalid_arg (Printf.sprintf "Flight.Kind.of_int: %d" n)

  let name = function
    | Refill -> "refill"
    | Grant -> "grant"
    | Throttle -> "throttle"
    | Deficit -> "deficit"
    | Donate -> "donate"
    | Bucket_take -> "bucket_take"
    | Bucket_reset -> "bucket_reset"
    | Idle_drain -> "idle_drain"
    | Queue_depth -> "queue_depth"
    | Demote -> "demote"
    | Fault_on -> "fault_on"
    | Fault_off -> "fault_off"
    | Alert_fire -> "alert_fire"
    | Alert_resolve -> "alert_resolve"
    | Remediate -> "remediate"
    | Mark -> "mark"
    | Migrate -> "migrate"
    | Balance -> "balance"
    | Hop -> "hop"

  let a_is_label = function
    | Fault_on | Fault_off | Alert_fire | Alert_resolve | Remediate | Mark -> true
    | Refill | Grant | Throttle | Deficit | Donate | Bucket_take | Bucket_reset
    | Idle_drain | Queue_depth | Demote | Migrate | Balance | Hop ->
        false
end

type t = {
  on : bool;
  cur : Cursor.t;
  (* Record times as immediate ns: an [int64 array] slot would point at the
     caller's box, so each store paid the write barrier and every recorded
     time was promoted by the next minor GC.  Sim times fit in 62 bits. *)
  times : int array;
  kinds : int array;
  aa : int array;
  bb : int array;
  vv : float array;
  (* Per-kind written counters (indexed by [Kind.to_int]): one extra array
     store on the hot path so {!snapshot} can report exactly which record
     kinds the wraparound window lost, not just a lump total. *)
  kind_written : int array;
  (* Cold-path label interning: ids are handed out in first-use order
     (deterministic); [names] is the id -> string view. *)
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n_labels : int;
}

let make ~enabled ~capacity =
  {
    on = enabled;
    cur = Cursor.create "Flight" capacity;
    times = Array.make capacity 0;
    kinds = Array.make capacity 0;
    aa = Array.make capacity 0;
    bb = Array.make capacity 0;
    vv = Array.make capacity 0.0;
    kind_written = Array.make Kind.count 0;
    ids = Hashtbl.create 16;
    names = Array.make 8 "";
    n_labels = 0;
  }

let disabled = make ~enabled:false ~capacity:1
let create ?(capacity = 1 lsl 15) () = make ~enabled:true ~capacity
let enabled t = t.on [@@inline]
let capacity t = Cursor.capacity t.cur
let total t = Cursor.total t.cur
let retained t = Cursor.length t.cur
let dropped t = Cursor.dropped t.cur

let record t ~now ~kind ~a ~b ~v =
  if t.on then begin
    let i = Cursor.advance t.cur in
    let k = Kind.to_int kind in
    t.times.(i) <- Int64.to_int now;
    t.kinds.(i) <- k;
    t.aa.(i) <- a;
    t.bb.(i) <- b;
    t.vv.(i) <- v;
    t.kind_written.(k) <- t.kind_written.(k) + 1
  end
[@@inline]

(* Cold path: first use of a label copies it into the id table. *)
let intern t label =
  if not t.on then -1
  else
    match Hashtbl.find_opt t.ids label with
    | Some id -> id
    | None ->
        let id = t.n_labels in
        if id = Array.length t.names then t.names <- Slots.extend t.names (2 * id) "";
        t.names.(id) <- label;
        t.n_labels <- id + 1;
        Hashtbl.add t.ids label id;
        id

let label t id = if id >= 0 && id < t.n_labels then t.names.(id) else "?"

let iter t f =
  Cursor.iter t.cur (fun i ->
      f ~time:(Int64.of_int t.times.(i)) ~kind:(Kind.of_int t.kinds.(i)) ~a:t.aa.(i)
        ~b:t.bb.(i) ~v:t.vv.(i))

type snapshot = {
  snap_now : Time.t;
  snap_window : Time.t;
  snap_total : int;
  snap_dropped : int;
  snap_kind_written : int array;
  snap_kind_retained : int array;
  s_times : Time.t array;
  s_kinds : int array;
  s_a : int array;
  s_b : int array;
  s_v : float array;
  s_labels : string array;
}

let snapshot t ~now ~window =
  let cutoff = Time.sub now window in
  (* First pass counts the matching tail; records are time-ordered, so the
     match set is a suffix of the oldest-first walk.  Boundary records
     (time exactly [now - window]) are included. *)
  let n = ref 0 in
  iter t (fun ~time ~kind:_ ~a:_ ~b:_ ~v:_ -> if Time.(time >= cutoff) then incr n);
  let n = !n in
  let s_times = Array.make (max n 1) 0L in
  let s_kinds = Array.make (max n 1) 0 in
  let s_a = Array.make (max n 1) 0 in
  let s_b = Array.make (max n 1) 0 in
  let s_v = Array.make (max n 1) 0.0 in
  let j = ref 0 in
  iter t (fun ~time ~kind ~a ~b ~v ->
      if Time.(time >= cutoff) then begin
        s_times.(!j) <- time;
        s_kinds.(!j) <- Kind.to_int kind;
        s_a.(!j) <- a;
        s_b.(!j) <- b;
        s_v.(!j) <- v;
        incr j
      end);
  (* Per-kind retention: cold full-ring scan (not just the window), so
     dropped_k = written_k - retained_k names exactly what wraparound
     overwrote for each record kind. *)
  let kind_retained = Array.make Kind.count 0 in
  iter t (fun ~time:_ ~kind ~a:_ ~b:_ ~v:_ ->
      let k = Kind.to_int kind in
      kind_retained.(k) <- kind_retained.(k) + 1);
  {
    snap_now = now;
    snap_window = window;
    snap_total = total t;
    snap_dropped = dropped t;
    snap_kind_written = Array.copy t.kind_written;
    snap_kind_retained = kind_retained;
    s_times = (if n = 0 then [||] else s_times);
    s_kinds = (if n = 0 then [||] else s_kinds);
    s_a = (if n = 0 then [||] else s_a);
    s_b = (if n = 0 then [||] else s_b);
    s_v = (if n = 0 then [||] else s_v);
    s_labels = Array.sub t.names 0 t.n_labels;
  }

let snap_length s = Array.length s.s_times
let snap_kind_written s kind = s.snap_kind_written.(Kind.to_int kind)
let snap_kind_retained s kind = s.snap_kind_retained.(Kind.to_int kind)

let snap_kind_dropped s kind =
  let k = Kind.to_int kind in
  s.snap_kind_written.(k) - s.snap_kind_retained.(k)
