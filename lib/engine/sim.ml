(* Event records live in a structure-of-arrays arena over [Slots] and
   are recycled on pop: [schedule] allocates nothing in steady state.
   An [event_id] is an immediate int packing the arena slot with a
   generation counter; the generation is bumped when a slot is recycled,
   so a stale handle held after its event fired can never cancel an
   unrelated later event (ABA safety).

   An event is either a closure ([at]/[after]: [a_handler] is -1 and the
   thunk sits in [a_action]) or posted data ([post_after]: a
   handler id registered once with [handler] plus an int argument, no
   closure and no pointer store).

   The queue is a binary min-heap on (key, seq) held in three int
   arrays: the time key, the insertion seq and the arena slot.  Popping
   reads the root's cells, so it yields no option, tuple or box. *)

(* 22 slot bits = up to ~4M concurrently pending events; 41 generation
   bits on 63-bit ints. *)
let slot_bits = 22
let slot_mask = (1 lsl slot_bits) - 1

type event_id = int

(* Slot [slot_mask] at generation 2^41 - 1, which no slot reaches. *)
let no_event = -1

type t = {
  mutable clock : Time.t;
  mutable clock_key : int; (* [key_of_time clock] *)
  (* the queue: heap cells in three parallel int arrays *)
  mutable q_key : int array;
  mutable q_seq : int array;
  mutable q_slot : int array;
  mutable q_len : int;
  mutable seq : int;
  mutable executed : int;
  mutable daemon_pending : int; (* daemon events currently queued *)
  mutable cancelled_pending : int; (* cancelled non-daemon events awaiting pop *)
  root_prng : Prng.t;
  (* event arena (parallel arrays indexed by slot) *)
  mutable a_cancelled : bool array;
  mutable a_daemon : bool array;
  mutable a_action : (unit -> unit) array;
  mutable a_handler : int array; (* posted handler id, or -1 for a closure *)
  mutable a_arg : int array;
  mutable a_gen : int array;
  slots : Slots.t;
  (* posted-event handlers, indexed by the id [handler] returned *)
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
}

let default_seed = 0x5EED_0F_F1A5_1234L

(* Shared thunk so cancellation and slot recycling can drop an event's
   closure without allocating. *)
let noop_action () = ()

(* The queue's int image of a time: [time - 2^62].  It is exact and
   order-preserving over every non-negative [int64], so times at or
   beyond 2^62 (up to [Time.infinity]) keep their value and their
   order; a plain [Int64.to_int] would wrap them negative. *)
let key_bias = 0x4000_0000_0000_0000L
let key_of_time tm = Int64.to_int (Int64.sub tm key_bias)
let time_of_key k = Int64.add (Int64.of_int k) key_bias

let create ?(seed = default_seed) () =
  {
    clock = Time.zero;
    clock_key = key_of_time Time.zero;
    q_key = [||];
    q_seq = [||];
    q_slot = [||];
    q_len = 0;
    seq = 0;
    executed = 0;
    daemon_pending = 0;
    cancelled_pending = 0;
    root_prng = Prng.create seed;
    a_cancelled = [||];
    a_daemon = [||];
    a_action = [||];
    a_handler = [||];
    a_arg = [||];
    a_gen = [||];
    slots = Slots.create 64;
    handlers = [||];
    n_handlers = 0;
  }

let now t = t.clock
let prng t = t.root_prng

(* ---- the queue ---- *)

(* Cold path: double the heap arrays. *)
let grow_queue t =
  let cap = Array.length t.q_key in
  let ncap = if cap = 0 then 64 else cap * 2 in
  t.q_key <- Slots.extend t.q_key ncap 0;
  t.q_seq <- Slots.extend t.q_seq ncap 0;
  t.q_slot <- Slots.extend t.q_slot ncap 0

(* Hole-lifting sift-up.  Seqs only grow, so the new cell is never below
   a parent with an equal key: comparing keys alone is the exact
   (key, seq) order here. *)
let queue_push t key slot =
  if t.q_len = Array.length t.q_key then grow_queue t;
  let seq = t.seq in
  t.seq <- seq + 1;
  let i = ref t.q_len in
  t.q_len <- t.q_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if key < t.q_key.(p) then begin
      t.q_key.(!i) <- t.q_key.(p);
      t.q_seq.(!i) <- t.q_seq.(p);
      t.q_slot.(!i) <- t.q_slot.(p);
      i := p
    end
    else continue := false
  done;
  t.q_key.(!i) <- key;
  t.q_seq.(!i) <- seq;
  t.q_slot.(!i) <- slot

(* Remove the root (requires [q_len > 0]): hole-lifting sift-down of the
   last cell. *)
let queue_pop t =
  let n = t.q_len - 1 in
  t.q_len <- n;
  if n > 0 then begin
    let k = t.q_key.(n) and s = t.q_seq.(n) and v = t.q_slot.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n
             && (t.q_key.(r) < t.q_key.(l) || (t.q_key.(r) = t.q_key.(l) && t.q_seq.(r) < t.q_seq.(l)))
          then r
          else l
        in
        if t.q_key.(c) < k || (t.q_key.(c) = k && t.q_seq.(c) < s) then begin
          t.q_key.(!i) <- t.q_key.(c);
          t.q_seq.(!i) <- t.q_seq.(c);
          t.q_slot.(!i) <- t.q_slot.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.q_key.(!i) <- k;
    t.q_seq.(!i) <- s;
    t.q_slot.(!i) <- v
  end

(* ---- the arena ---- *)

(* Cold path: the slots doubled, so the field arrays follow. *)
let grow_arena t =
  let ncap = Slots.capacity t.slots in
  if ncap > slot_mask + 1 then failwith "Sim: event arena exhausted";
  t.a_cancelled <- Slots.extend t.a_cancelled ncap false;
  t.a_daemon <- Slots.extend t.a_daemon ncap false;
  t.a_action <- Slots.extend t.a_action ncap noop_action;
  t.a_handler <- Slots.extend t.a_handler ncap (-1);
  t.a_arg <- Slots.extend t.a_arg ncap 0;
  t.a_gen <- Slots.extend t.a_gen ncap 0

(* Take a slot and clear its flags. *)
let alloc_event t ~daemon =
  let slot = Slots.alloc t.slots in
  if slot >= Array.length t.a_gen then grow_arena t;
  t.a_cancelled.(slot) <- false;
  t.a_daemon.(slot) <- daemon;
  slot

(* Retire a popped slot: drop a closure event's thunk, bump the
   generation (stale handles die), free the slot.  A posted event's
   [a_action] is already [noop_action], so its slot is retired with int
   stores only. *)
let free_event t slot =
  if t.a_handler.(slot) < 0 then t.a_action.(slot) <- noop_action;
  t.a_gen.(slot) <- t.a_gen.(slot) + 1;
  Slots.free t.slots slot

let past_error time clock =
  invalid_arg
    (Printf.sprintf "Sim.at: scheduling in the past (%s < %s)" (Time.to_string time)
       (Time.to_string clock))

let schedule t ~daemon time f =
  if Time.(time < t.clock) then past_error time t.clock;
  let slot = alloc_event t ~daemon in
  t.a_handler.(slot) <- -1;
  t.a_action.(slot) <- f;
  queue_push t (key_of_time time) slot;
  if daemon then t.daemon_pending <- t.daemon_pending + 1;
  (t.a_gen.(slot) lsl slot_bits) lor slot

let at t time f = schedule t ~daemon:false time f
let at_daemon t time f = schedule t ~daemon:true time f

let after t delay f = at t (Time.add t.clock delay) f

(* ---- posted events ---- *)

let handler t f =
  let id = t.n_handlers in
  if id = Array.length t.handlers then t.handlers <- Slots.extend t.handlers (max 8 (2 * id)) f;
  t.handlers.(id) <- f;
  t.n_handlers <- id + 1;
  id

(* The sum stays an unboxed int key: the boxed time is built only on the
   error path. *)
let post_after t delay h arg =
  let time = Time.add t.clock delay in
  if Time.(time < t.clock) then past_error time t.clock;
  let slot = alloc_event t ~daemon:false in
  t.a_handler.(slot) <- h;
  t.a_arg.(slot) <- arg;
  queue_push t (key_of_time time) slot

let cancel t id =
  let slot = id land slot_mask in
  (* A stale generation means the event already fired (or was popped
     after an earlier cancel) and the slot was recycled: no-op. *)
  if slot < Array.length t.a_gen && t.a_gen.(slot) = id lsr slot_bits
     && not t.a_cancelled.(slot) then begin
    t.a_cancelled.(slot) <- true;
    (* Blank the action so a cancelled timer does not pin its closure's
       environment (request payloads, connections) until the queue pops
       it — retry timers cancel on every successful completion, so the
       window between cancel and pop can hold thousands of dead events. *)
    t.a_action.(slot) <- noop_action;
    if not t.a_daemon.(slot) then t.cancelled_pending <- t.cancelled_pending + 1
  end

(* True for events that were cancelled and also for events that already
   retired (fired, or popped after cancellation): a dead handle is never
   "live and uncancelled". *)
let cancelled t id =
  let slot = id land slot_mask in
  slot >= Array.length t.a_gen
  || t.a_gen.(slot) <> id lsr slot_bits
  || t.a_cancelled.(slot)

(* Run every due event: pop while the root's key is [<= until_key].
   Stop once only daemon events remain: daemons (telemetry samplers and
   the like) observe the simulation but never keep it alive, so [run]
   still terminates when the real workload drains.  Unexecuted daemons
   stay queued and resume if new work arrives later. *)
let run_to t until_key =
  while t.q_len > t.daemon_pending && t.q_key.(0) <= until_key do
    let key = t.q_key.(0) and slot = t.q_slot.(0) in
    queue_pop t;
    let daemon = t.a_daemon.(slot) in
    let was_cancelled = t.a_cancelled.(slot) in
    let h = t.a_handler.(slot) in
    let arg = t.a_arg.(slot) in
    let action = t.a_action.(slot) in
    free_event t slot;
    if daemon then t.daemon_pending <- t.daemon_pending - 1
    else if was_cancelled then t.cancelled_pending <- t.cancelled_pending - 1;
    (* A daemon left behind by an earlier [run] whose clock was forced
       forward to [until] can carry a stale timestamp; never move the
       clock backwards.  The clock is boxed only when time advances. *)
    if key > t.clock_key then begin
      t.clock_key <- key;
      t.clock <- time_of_key key
    end;
    if not was_cancelled then begin
      t.executed <- t.executed + 1;
      if h >= 0 then t.handlers.(h) arg else action ()
    end
  done

let run ?(until = Time.infinity) t =
  let executed_before = t.executed in
  (* Every event time is >= 0, so a negative horizon runs nothing. *)
  if Time.(until >= Time.zero) then run_to t (key_of_time until);
  (* The clock advances to [until] even if the queue drained earlier, so
     that rate computations based on [now] are well defined. *)
  if Time.(until < Time.infinity) && Time.(t.clock < until) then begin
    t.clock <- until;
    t.clock_key <- key_of_time until
  end;
  t.executed - executed_before

let events_executed t = t.executed
let pending t = t.q_len

(* Cancelled non-daemon events still occupy queue slots until their time
   comes, but they are dead weight: polling loops that wait for
   [live_pending = 0] must not spin on a pile of cancelled retry
   timers. *)
let live_pending t = t.q_len - t.daemon_pending - t.cancelled_pending

let every t ~every:period ~until f =
  if Time.(period <= Time.zero) then invalid_arg "Sim.every: non-positive period";
  let rec tick time =
    if Time.(time <= until) then
      ignore
        (at t time (fun () ->
             f time;
             let next = Time.add time period in
             (* Guard int64 wrap-around near Time.infinity: a wrapped
                [next] would be "in the past" and make [at] raise from
                inside the event loop. *)
             if Time.(next > time) then tick next))
  in
  let first = Time.add t.clock period in
  if Time.(first > t.clock) then tick first

let every_daemon t ~every:period f =
  if Time.(period <= Time.zero) then invalid_arg "Sim.every_daemon: non-positive period";
  let rec tick time =
    ignore
      (at_daemon t time (fun () ->
           (* After an idle gap the scheduled [time] may be stale (the
              clock was forced forward); report the actual clock. *)
           f t.clock;
           let next = Time.max (Time.add time period) t.clock in
           if Time.(next > time) then tick next))
  in
  let first = Time.add t.clock period in
  if Time.(first > t.clock) then tick first
