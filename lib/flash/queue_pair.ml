open Reflex_engine

(* A submitted command holds one submission slot from [submit] until
   [drain] reaps its completion.  Each slot owns a completion callback
   built once, when the slot is first needed (the slots grow on demand
   up to the high-water mark of commands in flight or awaiting reaping),
   so submitting a command allocates no closure: the callback knows its
   slot, and the slot holds the command's cookie, kind and, once the
   device completes it, its latency.  The completion queue is an
   [Int_fifo] of those slots, so completion delivery allocates nothing
   in steady state. *)
type t = {
  dev : Nvme_model.t;
  depth : int;
  slots : Slots.t;
  mutable s_cookie : int array;
  mutable s_kind : Io_op.kind array;
  mutable s_lat : Time.t array;
  mutable s_cb : (latency:Time.t -> unit) array;
  cq : Int_fifo.t;
  mutable inflight : int;
  mutable completion_hook : unit -> unit;
}

let create dev =
  {
    dev;
    depth = (Nvme_model.profile dev).Device_profile.sq_depth;
    slots = Slots.create 8;
    s_cookie = [||];
    s_kind = [||];
    s_lat = [||];
    s_cb = [||];
    cq = Int_fifo.create ();
    inflight = 0;
    completion_hook = (fun () -> ());
  }

let set_completion_hook t f = t.completion_hook <- f

(* The device completed the command in [slot]: append the slot to the
   CQ and signal the poller. *)
let complete t slot ~latency =
  t.inflight <- t.inflight - 1;
  t.s_lat.(slot) <- latency;
  Int_fifo.push t.cq slot;
  t.completion_hook ()

(* Cold: the slots doubled, so the field arrays follow, and each fresh
   slot gets its callback. *)
let slots_grow t =
  let cap = Array.length t.s_cookie in
  let ncap = Slots.capacity t.slots in
  t.s_cookie <- Slots.extend t.s_cookie ncap 0;
  t.s_kind <- Slots.extend t.s_kind ncap Io_op.Read;
  t.s_lat <- Slots.extend t.s_lat ncap Time.zero;
  t.s_cb <- Array.append t.s_cb (Array.init (ncap - cap) (fun k -> complete t (cap + k)))

let submit t ~kind ~bytes ~cookie =
  if t.inflight >= t.depth then `Full
  else begin
    t.inflight <- t.inflight + 1;
    let slot = Slots.alloc t.slots in
    if slot >= Array.length t.s_cookie then slots_grow t;
    t.s_cookie.(slot) <- cookie;
    t.s_kind.(slot) <- kind;
    Nvme_model.submit t.dev ~kind ~bytes t.s_cb.(slot);
    `Ok
  end

(* Each slot is freed before [f] runs, so [f] may submit into it. *)
let drain t ~max ~f =
  let pending = Int_fifo.length t.cq in
  let n = if max < pending then max else pending in
  for _ = 1 to n do
    let slot = Int_fifo.pop t.cq in
    let cookie = t.s_cookie.(slot) and kind = t.s_kind.(slot) and latency = t.s_lat.(slot) in
    Slots.free t.slots slot;
    f ~cookie ~kind ~latency
  done;
  n

let inflight t = t.inflight
let completions_pending t = Int_fifo.length t.cq
