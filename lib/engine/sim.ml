(* Event records live in a structure-of-arrays arena and are recycled on
   pop: [schedule] allocates nothing in steady state (the former
   per-event record is gone).  An [event_id] is an immediate int packing
   the arena slot with a generation counter; the generation is bumped
   when a slot is recycled, so a stale handle held after its event fired
   can never cancel an unrelated later event (ABA safety). *)

(* 22 slot bits = up to ~4M concurrently pending events; 41 generation
   bits on 63-bit ints. *)
let slot_bits = 22
let slot_mask = (1 lsl slot_bits) - 1

type event_id = int

type t = {
  mutable clock : Time.t;
  queue : Wheel.t; (* (time, seq)-ordered arena slots *)
  mutable seq : int;
  mutable executed : int;
  mutable daemon_pending : int; (* daemon events currently queued *)
  mutable cancelled_pending : int; (* cancelled non-daemon events awaiting pop *)
  root_prng : Prng.t;
  (* event arena (parallel arrays indexed by slot) *)
  mutable a_cancelled : bool array;
  mutable a_daemon : bool array;
  mutable a_action : (unit -> unit) array;
  mutable a_gen : int array;
  mutable free : int array; (* freelist stack of recycled slots *)
  mutable free_len : int;
}

let default_seed = 0x5EED_0F_F1A5_1234L

(* Shared thunk so cancellation and slot recycling can drop an event's
   closure without allocating. *)
let noop_action () = ()

let create ?(seed = default_seed) () =
  {
    clock = Time.zero;
    queue = Wheel.create ();
    seq = 0;
    executed = 0;
    daemon_pending = 0;
    cancelled_pending = 0;
    root_prng = Prng.create seed;
    a_cancelled = [||];
    a_daemon = [||];
    a_action = [||];
    a_gen = [||];
    free = [||];
    free_len = 0;
  }

let now t = t.clock
let prng t = t.root_prng

(* Cold path: double the arena and push the fresh slots onto the
   freelist (newest first, so low slot numbers are reused first). *)
let grow_arena t =
  let cap = Array.length t.a_gen in
  let ncap = if cap = 0 then 64 else cap * 2 in
  if ncap > slot_mask + 1 then failwith "Sim: event arena exhausted";
  let nc = Array.make ncap false in
  Array.blit t.a_cancelled 0 nc 0 cap;
  t.a_cancelled <- nc;
  let nd = Array.make ncap false in
  Array.blit t.a_daemon 0 nd 0 cap;
  t.a_daemon <- nd;
  let na = Array.make ncap noop_action in
  Array.blit t.a_action 0 na 0 cap;
  t.a_action <- na;
  let ng = Array.make ncap 0 in
  Array.blit t.a_gen 0 ng 0 cap;
  t.a_gen <- ng;
  let nf = Array.make ncap 0 in
  Array.blit t.free 0 nf 0 t.free_len;
  t.free <- nf;
  for slot = ncap - 1 downto cap do
    t.free.(t.free_len) <- slot;
    t.free_len <- t.free_len + 1
  done

(* Take a slot off the freelist and arm it.  Returns the packed handle. *)
let alloc_event t ~daemon f =
  if t.free_len = 0 then grow_arena t;
  t.free_len <- t.free_len - 1;
  let slot = t.free.(t.free_len) in
  t.a_cancelled.(slot) <- false;
  t.a_daemon.(slot) <- daemon;
  t.a_action.(slot) <- f;
  (t.a_gen.(slot) lsl slot_bits) lor slot

(* Retire a popped slot: drop the closure, bump the generation (stale
   handles die), push back onto the freelist. *)
let free_event t slot =
  t.a_action.(slot) <- noop_action;
  t.a_gen.(slot) <- t.a_gen.(slot) + 1;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1

let schedule t ~daemon time f =
  if Time.(time < t.clock) then
    invalid_arg
      (Printf.sprintf "Sim.at: scheduling in the past (%s < %s)" (Time.to_string time)
         (Time.to_string t.clock));
  let id = alloc_event t ~daemon f in
  Wheel.push t.queue ~time ~seq:t.seq (id land slot_mask);
  t.seq <- t.seq + 1;
  if daemon then t.daemon_pending <- t.daemon_pending + 1;
  id

let at t time f = schedule t ~daemon:false time f
let at_daemon t time f = schedule t ~daemon:true time f

let after t delay f = at t (Time.add t.clock delay) f

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

let run ?(until = Time.infinity) t =
  let executed_before = t.executed in
  let continue = ref true in
  while !continue do
    (* Stop once only daemon events remain: daemons (telemetry samplers
       and the like) observe the simulation but never keep it alive, so
       [run] still terminates when the real workload drains.  Unexecuted
       daemons stay queued and resume if new work arrives later. *)
    if Wheel.length t.queue <= t.daemon_pending then continue := false
    else
      (* Single queue traversal per event: pop only when the minimum is
         due, instead of the former peek-then-pop pair. *)
      match Wheel.pop_if_le t.queue ~until with
      | None -> continue := false
      | Some (time, _, slot) ->
        let daemon = t.a_daemon.(slot) in
        let was_cancelled = t.a_cancelled.(slot) in
        let action = t.a_action.(slot) in
        free_event t slot;
        if daemon then t.daemon_pending <- t.daemon_pending - 1
        else if was_cancelled then t.cancelled_pending <- t.cancelled_pending - 1;
        (* A daemon left behind by an earlier [run] whose clock was forced
           forward to [until] can carry a stale timestamp; never move the
           clock backwards. *)
        t.clock <- Time.max t.clock time;
        if not was_cancelled then begin
          t.executed <- t.executed + 1;
          action ()
        end
  done;
  (* The clock advances to [until] even if the queue drained earlier, so
     that rate computations based on [now] are well defined. *)
  if Time.(until < Time.infinity) && Time.(t.clock < until) then t.clock <- until;
  t.executed - executed_before

let events_executed t = t.executed
let pending t = Wheel.length t.queue

(* Cancelled non-daemon events still occupy queue slots until their time
   comes, but they are dead weight: polling loops that wait for
   [live_pending = 0] must not spin on a pile of cancelled retry
   timers. *)
let live_pending t = Wheel.length t.queue - t.daemon_pending - t.cancelled_pending

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
