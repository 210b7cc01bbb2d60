(* Binary min-heap in structure-of-arrays layout: the (time, seq) keys and
   the payloads live in three parallel arrays instead of one array of
   boxed [entry] records.  A push therefore allocates nothing, and
   sift-up/-down move array cells, never boxes.

   Sift operations are hole-lifting: the moving element is held in
   locals while parents/children shift into the hole, so each level
   costs one store per array rather than a three-array swap. *)

open Reflex_engine

type 'a t = {
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

(* Capacity of the key arrays — preserved across {!clear} so a reused
   heap never re-climbs the 64-element growth ladder. *)
let capacity t = Array.length t.times

(* Cold path: double the key/payload arrays (or re-arm the payload array
   after a [clear], which drops it to release references while the key
   arrays keep their capacity).  [v] seeds the fresh payload slots — it
   is the value being pushed, so no foreign dummy is pinned. *)
let grow t v =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ntimes = Array.make ncap Time.zero in
    Array.blit t.times 0 ntimes 0 t.size;
    t.times <- ntimes;
    let nseqs = Array.make ncap 0 in
    Array.blit t.seqs 0 nseqs 0 t.size;
    t.seqs <- nseqs;
    let nvalues = Array.make ncap v in
    Array.blit t.values 0 nvalues 0 t.size;
    t.values <- nvalues
  end
  else if Array.length t.values < cap then begin
    (* First push after [clear]: key arrays kept their capacity, the
       payload array was dropped; re-make it at full capacity in one
       step. *)
    let nvalues = Array.make cap v in
    Array.blit t.values 0 nvalues 0 t.size;
    t.values <- nvalues
  end

(* Is the key (time, seq) strictly less than the entry at index [j]? *)
let key_less t time seq j =
  match Time.compare time t.times.(j) with
  | 0 -> seq < t.seqs.(j)
  | c -> c < 0

(* Is the entry at index [j] strictly less than the key (time, seq)? *)
let entry_less t j time seq =
  match Time.compare t.times.(j) time with
  | 0 -> t.seqs.(j) < seq
  | c -> c < 0

let push t ~time ~seq v =
  grow t v;
  let i = ref t.size in
  t.size <- t.size + 1;
  (* hole-lift sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key_less t time seq parent then begin
      t.times.(!i) <- t.times.(parent);
      t.seqs.(!i) <- t.seqs.(parent);
      t.values.(!i) <- t.values.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- v

let peek t = if t.size = 0 then None else Some (t.times.(0), t.seqs.(0), t.values.(0))

(* Remove and return the root; requires [t.size > 0]. *)
let remove_top t =
  let rtime = t.times.(0) and rseq = t.seqs.(0) and rv = t.values.(0) in
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    (* Hole-lift sift down with the former last element. *)
    let ltime = t.times.(n) and lseq = t.seqs.(n) and lv = t.values.(n) in
    (* Blank the vacated slot with a duplicate of a live payload so the
       heap does not pin the removed element (space leak on long runs).
       When the heap drains to empty, slot 0 still references the
       returned element until the next push overwrites it — bounded to
       one entry. *)
    t.values.(n) <- lv;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && key_less t t.times.(r) t.seqs.(r) l then r else l
        in
        if entry_less t c ltime lseq then begin
          t.times.(!i) <- t.times.(c);
          t.seqs.(!i) <- t.seqs.(c);
          t.values.(!i) <- t.values.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- ltime;
    t.seqs.(!i) <- lseq;
    t.values.(!i) <- lv
  end;
  (rtime, rseq, rv)

let pop t = if t.size = 0 then None else Some (remove_top t)

(* Single-traversal peek+pop: pop the minimum only when it is due — one
   root comparison replaces the peek-then-pop double traversal. *)
let pop_if_le t ~until =
  if t.size = 0 then None
  else if Time.compare t.times.(0) until > 0 then None
  else Some (remove_top t)

let clear t =
  (* Keep the numeric key arrays (capacity survives, see {!capacity});
     drop only the payload array so cleared entries cannot pin their
     payloads.  The next push re-makes it at full capacity in one step
     (see [grow]). *)
  t.values <- [||];
  t.size <- 0
