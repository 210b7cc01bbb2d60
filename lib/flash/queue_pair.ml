(* A submitted command holds one submission slot until it completes.
   Each slot owns a completion callback built once, when the slot is
   first needed (the slots grow on demand up to the inflight high-water
   mark), so submitting a command allocates no closure: the callback
   knows its slot, and the slot holds the command's cookie and kind.

   The completion queue is a structure-of-arrays ring, not a [Queue.t]
   of records: the interrupt path writes three array slots and bumps the
   tail, so completion delivery allocates nothing in steady state.  The
   ring starts at [sq_depth] (one CQ entry per inflight command) and
   doubles in the cold [cq_grow] helper if reaping ever lags submission
   by more than a full ring. *)
type t = {
  dev : Nvme_model.t;
  depth : int;
  mutable s_cookie : int array;
  mutable s_kind : Io_op.kind array;
  mutable s_cb : (latency:Reflex_engine.Time.t -> unit) array;
  mutable s_free : int array;
  mutable s_free_len : int;
  mutable cq_cookie : int array;
  mutable cq_kind : Io_op.kind array;
  mutable cq_lat : Reflex_engine.Time.t array;
  mutable cq_mask : int;
  mutable cq_head : int;
  mutable cq_len : int;
  mutable inflight : int;
  mutable completion_hook : unit -> unit;
}

let create dev =
  let depth = (Nvme_model.profile dev).Device_profile.sq_depth in
  let size = ref 16 in
  while !size < depth do size := !size * 2 done;
  {
    dev;
    depth;
    s_cookie = [||];
    s_kind = [||];
    s_cb = [||];
    s_free = [||];
    s_free_len = 0;
    cq_cookie = Array.make !size 0;
    cq_kind = Array.make !size Io_op.Read;
    cq_lat = Array.make !size Reflex_engine.Time.zero;
    cq_mask = !size - 1;
    cq_head = 0;
    cq_len = 0;
    inflight = 0;
    completion_hook = (fun () -> ());
  }

let set_completion_hook t f = t.completion_hook <- f

(* Cold: only when unreaped completions fill the ring. *)
let cq_grow t =
  let old = t.cq_mask + 1 in
  let size = old * 2 in
  let cookie = Array.make size 0 in
  let kind = Array.make size Io_op.Read in
  let lat = Array.make size Reflex_engine.Time.zero in
  for k = 0 to t.cq_len - 1 do
    let i = (t.cq_head + k) land t.cq_mask in
    cookie.(k) <- t.cq_cookie.(i);
    kind.(k) <- t.cq_kind.(i);
    lat.(k) <- t.cq_lat.(i)
  done;
  t.cq_cookie <- cookie;
  t.cq_kind <- kind;
  t.cq_lat <- lat;
  t.cq_mask <- size - 1;
  t.cq_head <- 0

(* The device completed the command in [slot]: free the slot, append
   the completion to the CQ ring and signal the poller. *)
let complete t slot ~latency =
  t.inflight <- t.inflight - 1;
  t.s_free.(t.s_free_len) <- slot;
  t.s_free_len <- t.s_free_len + 1;
  if t.cq_len > t.cq_mask then cq_grow t;
  let i = (t.cq_head + t.cq_len) land t.cq_mask in
  t.cq_cookie.(i) <- t.s_cookie.(slot);
  t.cq_kind.(i) <- t.s_kind.(slot);
  t.cq_lat.(i) <- latency;
  t.cq_len <- t.cq_len + 1;
  t.completion_hook ()

let grow a ncap fill =
  let na = Array.make ncap fill in
  Array.blit a 0 na 0 (Array.length a);
  na

(* Cold: more commands in flight than ever before.  Doubles the slots
   and builds each fresh slot's callback. *)
let slots_grow t =
  let cap = Array.length t.s_cookie in
  let ncap = if cap = 0 then 8 else 2 * cap in
  t.s_cookie <- grow t.s_cookie ncap 0;
  t.s_kind <- grow t.s_kind ncap Io_op.Read;
  t.s_cb <- Array.append t.s_cb (Array.init (ncap - cap) (fun k -> complete t (cap + k)));
  t.s_free <- grow t.s_free ncap 0;
  for slot = ncap - 1 downto cap do
    t.s_free.(t.s_free_len) <- slot;
    t.s_free_len <- t.s_free_len + 1
  done

let submit t ~kind ~bytes ~cookie =
  if t.inflight >= t.depth then `Full
  else begin
    t.inflight <- t.inflight + 1;
    if t.s_free_len = 0 then slots_grow t;
    t.s_free_len <- t.s_free_len - 1;
    let slot = t.s_free.(t.s_free_len) in
    t.s_cookie.(slot) <- cookie;
    t.s_kind.(slot) <- kind;
    Nvme_model.submit t.dev ~kind ~bytes t.s_cb.(slot);
    `Ok
  end

let drain t ~max ~f =
  let n = if max < t.cq_len then max else t.cq_len in
  for _ = 1 to n do
    let i = t.cq_head in
    t.cq_head <- (i + 1) land t.cq_mask;
    t.cq_len <- t.cq_len - 1;
    f ~cookie:t.cq_cookie.(i) ~kind:t.cq_kind.(i) ~latency:t.cq_lat.(i)
  done;
  n

let inflight t = t.inflight
let completions_pending t = t.cq_len
