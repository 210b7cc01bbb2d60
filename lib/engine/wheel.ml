(* Hierarchical timing wheel (Varghese & Lauck) over int payloads — the
   [Sim] event queue.

   Layout: 4 levels of 256 slots.  Level [l] has slot granularity
   [2^(10 + 8l)] ns (1.024 us at level 0, ~17.2 s at level 3), giving a
   top-level horizon of ~73 minutes; events beyond it wait in an
   overflow min-heap and are pulled in as the cursor crosses top-level
   slot boundaries.

   Invariant (what makes masked slot lookup unambiguous): an entry
   resides at the lowest level [l] whose absolute slot number
   [time lsr shift_l] lies within 256 slots of the cursor's absolute
   slot [wcur lsr shift_l].  Every entry in a masked slot therefore
   belongs to exactly one absolute slot — no lap filtering is needed
   when a slot is drained, and cascade on boundary crossing moves the
   whole chain down one level unconditionally.

   Events inside one level-0 slot are not ordered by the wheel itself;
   draining a slot sorts its chain into the "ready" buffer (descending
   by (time, seq), so the minimum pops from the end).  Events pushed
   below the cursor (legal: the cursor runs ahead of the sim clock once
   a slot has been drained) insert directly into the ready buffer.
   The total pop order is exactly (time, then seq) — identical to the
   binary heap, which the equivalence tests assert.

   Nodes live in a structure-of-arrays pool with an intrusive freelist:
   push and pop allocate nothing in steady state. *)

(* Times at or beyond 2^61 ns (incl. [Time.infinity]) do not fit the
   int-indexed wheel; they stay in the overflow heap and are popped
   directly once everything else has drained. *)
let wheel_time_max = 0x2000_0000_0000_0000L

type t = {
  mutable wcur : int; (* cursor position, ns, level-0-slot aligned *)
  heads : int array; (* 4 levels x 256 slots; head node index or -1 *)
  counts : int array; (* live wheel entries per level *)
  (* node pool (structure of arrays) with intrusive freelist *)
  mutable p_time : int array;
  mutable p_seq : int array;
  mutable p_val : int array;
  mutable p_next : int array;
  mutable free_head : int;
  (* ready buffer: drained/past-cursor entries, descending (time, seq) *)
  mutable r_time : int array;
  mutable r_seq : int array;
  mutable r_val : int array;
  mutable r_len : int;
  ovf : int Heap.t; (* beyond-horizon events, ordered by (time, seq) *)
  mutable total : int;
}

let create () =
  {
    wcur = 0;
    heads = Array.make 1024 (-1);
    counts = Array.make 4 0;
    p_time = [||];
    p_seq = [||];
    p_val = [||];
    p_next = [||];
    free_head = -1;
    r_time = [||];
    r_seq = [||];
    r_val = [||];
    r_len = 0;
    ovf = Heap.create ();
    total = 0;
  }

let length t = t.total
let is_empty t = t.total = 0
let wheel_live t = t.counts.(0) + t.counts.(1) + t.counts.(2) + t.counts.(3)

(* Cold path: double the node pool and chain the fresh slots onto the
   freelist. *)
let grow_pool t =
  let cap = Array.length t.p_next in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nt = Array.make ncap 0 in
  Array.blit t.p_time 0 nt 0 cap;
  t.p_time <- nt;
  let ns = Array.make ncap 0 in
  Array.blit t.p_seq 0 ns 0 cap;
  t.p_seq <- ns;
  let nv = Array.make ncap 0 in
  Array.blit t.p_val 0 nv 0 cap;
  t.p_val <- nv;
  let nn = Array.make ncap (-1) in
  Array.blit t.p_next 0 nn 0 cap;
  t.p_next <- nn;
  for i = cap to ncap - 2 do
    t.p_next.(i) <- i + 1
  done;
  t.p_next.(ncap - 1) <- -1;
  t.free_head <- cap

(* Cold path: double the ready buffer. *)
let grow_ready t =
  let cap = Array.length t.r_time in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nt = Array.make ncap 0 in
  Array.blit t.r_time 0 nt 0 t.r_len;
  t.r_time <- nt;
  let ns = Array.make ncap 0 in
  Array.blit t.r_seq 0 ns 0 t.r_len;
  t.r_seq <- ns;
  let nv = Array.make ncap 0 in
  Array.blit t.r_val 0 nv 0 t.r_len;
  t.r_val <- nv

(* Link a node for absolute time [ti] into level [l] (slot shift [sh]). *)
let insert_at t l sh ti seq v =
  if t.free_head < 0 then grow_pool t;
  let n = t.free_head in
  t.free_head <- t.p_next.(n);
  t.p_time.(n) <- ti;
  t.p_seq.(n) <- seq;
  t.p_val.(n) <- v;
  let row = (l lsl 8) lor ((ti lsr sh) land 255) in
  t.p_next.(n) <- t.heads.(row);
  t.heads.(row) <- n;
  t.counts.(l) <- t.counts.(l) + 1

(* Insert at the lowest level whose absolute-slot distance from the
   cursor is under 256.  Precondition: [wcur <= ti] and the level-3
   distance check already passed. *)
let wheel_push_in t ti seq v =
  let c = t.wcur in
  if (ti lsr 10) - (c lsr 10) < 256 then insert_at t 0 10 ti seq v
  else if (ti lsr 18) - (c lsr 18) < 256 then insert_at t 1 18 ti seq v
  else if (ti lsr 26) - (c lsr 26) < 256 then insert_at t 2 26 ti seq v
  else insert_at t 3 34 ti seq v

(* Insert an entry that lands below the cursor into the sorted ready
   buffer (binary search + shift; descending order, minimum at the
   end). *)
let ready_insert t ti sq v =
  if t.r_len = Array.length t.r_time then grow_ready t;
  let lo = ref 0 and hi = ref t.r_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.r_time.(mid) > ti || (t.r_time.(mid) = ti && t.r_seq.(mid) > sq) then lo := mid + 1
    else hi := mid
  done;
  let p = !lo in
  let n = t.r_len - p in
  Array.blit t.r_time p t.r_time (p + 1) n;
  Array.blit t.r_seq p t.r_seq (p + 1) n;
  Array.blit t.r_val p t.r_val (p + 1) n;
  t.r_time.(p) <- ti;
  t.r_seq.(p) <- sq;
  t.r_val.(p) <- v;
  t.r_len <- t.r_len + 1

let push t ~time ~seq v =
  t.total <- t.total + 1;
  if Int64.compare time wheel_time_max >= 0 then Heap.push t.ovf ~time ~seq v
  else begin
    let ti = Int64.to_int time in
    if ti < t.wcur then ready_insert t ti seq v
    else if (ti lsr 34) - (t.wcur lsr 34) < 256 then wheel_push_in t ti seq v
    else Heap.push t.ovf ~time ~seq v
  end

(* Move overflow entries that now fit under the top-level horizon into
   the wheel.  Called when the cursor crosses a top-level slot boundary
   (the horizon advances one top slot at a time, so nothing can be
   skipped) and after a rebase. *)
let pull_overflow t =
  let horizon_slots = (t.wcur lsr 34) + 256 in
  let continue = ref true in
  while !continue do
    (* key-only peek first: the common "nothing to pull" probe allocates
       nothing; the pop's tuple is paid only for entries actually moved *)
    let tm = Heap.peek_time t.ovf in
    if Int64.compare tm wheel_time_max < 0 && Int64.to_int tm lsr 34 < horizon_slots then begin
      match Heap.pop t.ovf with
      | Some (tm, sq, v) -> wheel_push_in t (Int64.to_int tm) sq v
      | None -> continue := false
    end
    else continue := false
  done

(* Redistribute the chain of level-[l] slot [s] one level down.  By the
   residency invariant every node in the masked slot belongs to the
   absolute slot the cursor just entered, so the whole chain moves. *)
let cascade t l s =
  let row = (l lsl 8) lor s in
  let node = ref t.heads.(row) in
  if !node >= 0 then begin
    t.heads.(row) <- -1;
    let sh = 10 + (8 * (l - 1)) in
    let k = ref 0 in
    while !node >= 0 do
      let n = !node in
      node := t.p_next.(n);
      let drow = ((l - 1) lsl 8) lor ((t.p_time.(n) lsr sh) land 255) in
      t.p_next.(n) <- t.heads.(drow);
      t.heads.(drow) <- n;
      incr k
    done;
    t.counts.(l) <- t.counts.(l) - !k;
    t.counts.(l - 1) <- t.counts.(l - 1) + !k
  end

(* Sort the ready buffer descending by (time, seq).  A drained chain is
   in reverse insertion order, so same-time bursts arrive already
   descending by seq and the insertion sort runs near-linear. *)
let sort_ready t =
  for i = 1 to t.r_len - 1 do
    let tm = t.r_time.(i) and sq = t.r_seq.(i) and v = t.r_val.(i) in
    let j = ref (i - 1) in
    while
      !j >= 0 && (t.r_time.(!j) < tm || (t.r_time.(!j) = tm && t.r_seq.(!j) < sq))
    do
      t.r_time.(!j + 1) <- t.r_time.(!j);
      t.r_seq.(!j + 1) <- t.r_seq.(!j);
      t.r_val.(!j + 1) <- t.r_val.(!j);
      decr j
    done;
    t.r_time.(!j + 1) <- tm;
    t.r_seq.(!j + 1) <- sq;
    t.r_val.(!j + 1) <- v
  done

(* Boundary bookkeeping after the cursor advanced to [next]: every
   coarser slot whose boundary [next] lands on is being entered and must
   cascade down, and crossing a top-level boundary advances the horizon,
   so newly-fitting overflow entries are pulled in.  Called on EVERY
   cursor advance — a level-0 drain can land exactly on a coarser
   boundary just like a [step] can, and skipping the cascade there would
   strand the entered slot's entries. *)
let on_boundary t next =
  if next land ((1 lsl 34) - 1) = 0 then begin
    pull_overflow t;
    cascade t 3 ((next lsr 34) land 255)
  end;
  if next land ((1 lsl 26) - 1) = 0 then cascade t 2 ((next lsr 26) land 255);
  if next land ((1 lsl 18) - 1) = 0 then cascade t 1 ((next lsr 18) land 255)

(* Drain the level-0 slot under the cursor into the (empty) ready buffer
   and advance the cursor past it. *)
let drain_slot0 t row =
  let node = ref t.heads.(row) in
  t.heads.(row) <- -1;
  let k = ref 0 in
  while !node >= 0 do
    let n = !node in
    if t.r_len = Array.length t.r_time then grow_ready t;
    t.r_time.(t.r_len) <- t.p_time.(n);
    t.r_seq.(t.r_len) <- t.p_seq.(n);
    t.r_val.(t.r_len) <- t.p_val.(n);
    t.r_len <- t.r_len + 1;
    node := t.p_next.(n);
    (* recycle the node *)
    t.p_next.(n) <- t.free_head;
    t.free_head <- n;
    incr k
  done;
  t.counts.(0) <- t.counts.(0) - !k;
  sort_ready t;
  t.wcur <- ((t.wcur lsr 10) + 1) lsl 10;
  on_boundary t t.wcur

(* Advance the cursor one slot boundary at the lowest occupied level,
   cascading every coarser slot whose boundary the move lands on
   (coarser boundaries are a subset of finer ones, so a single jump can
   never skip past one). *)
let step t =
  let c = t.counts in
  let l = if c.(0) > 0 then 0 else if c.(1) > 0 then 1 else if c.(2) > 0 then 2 else 3 in
  let sh = 10 + (8 * l) in
  let next = ((t.wcur lsr sh) + 1) lsl sh in
  t.wcur <- next;
  on_boundary t next

(* Make the next event reachable.  Returns 0 when empty, 1 when the
   minimum sits at the end of the ready buffer, 2 when it must be popped
   directly from the overflow heap (times >= 2^61 ns only). *)
let ensure t =
  let res = ref (-1) in
  while !res < 0 do
    if t.r_len > 0 then res := 1
    else if t.total = 0 then res := 0
    else if wheel_live t > 0 then begin
      let row = (t.wcur lsr 10) land 255 in
      if t.heads.(row) >= 0 then drain_slot0 t row else step t
    end
    else begin
      (* only the overflow heap holds entries; key-only peek, no alloc *)
      let tm = Heap.peek_time t.ovf in
      if Heap.is_empty t.ovf then res := 0
      else if Int64.compare tm wheel_time_max < 0 then begin
        (* rebase the cursor onto the earliest overflow entry *)
        let ti = Int64.to_int tm in
        let aligned = ti lsr 10 lsl 10 in
        if aligned > t.wcur then t.wcur <- aligned;
        pull_overflow t
      end
      else res := 2
    end
  done;
  !res

let pop t =
  match ensure t with
  | 1 ->
    let i = t.r_len - 1 in
    t.r_len <- i;
    t.total <- t.total - 1;
    Some (Int64.of_int t.r_time.(i), t.r_seq.(i), t.r_val.(i))
  | 2 ->
    t.total <- t.total - 1;
    Heap.pop t.ovf
  | _ -> None

(* Single-traversal peek+pop — the event loop's hot path, mirroring
   [Heap.pop_if_le]. *)
let pop_if_le t ~until =
  match ensure t with
  | 1 ->
    let i = t.r_len - 1 in
    let tm = t.r_time.(i) in
    if
      Int64.compare until wheel_time_max >= 0
      || (Int64.to_int until >= 0 && tm <= Int64.to_int until)
    then begin
      t.r_len <- i;
      t.total <- t.total - 1;
      Some (Int64.of_int tm, t.r_seq.(i), t.r_val.(i))
    end
    else None
  | 2 ->
    (* key-only peek: the miss case (min beyond horizon) allocates
       nothing; [peek_time] is [infinity] on an empty heap, and
       [until < infinity] for any real horizon, so the guard also
       rejects the empty case *)
    if (not (Heap.is_empty t.ovf)) && Time.compare (Heap.peek_time t.ovf) until <= 0 then begin
      t.total <- t.total - 1;
      Heap.pop t.ovf
    end
    else None
  | _ -> None

let clear t =
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.counts 0 4 0;
  let cap = Array.length t.p_next in
  for i = 0 to cap - 2 do
    t.p_next.(i) <- i + 1
  done;
  if cap > 0 then t.p_next.(cap - 1) <- -1;
  t.free_head <- (if cap > 0 then 0 else -1);
  t.r_len <- 0;
  Heap.clear t.ovf;
  t.total <- 0;
  t.wcur <- 0
