(** Discrete-event simulation kernel.

    A simulation owns a virtual clock and an event queue.  Events run at
    their scheduled time, in (time, insertion) order.  Everything in the
    repository — Flash dies, NIC queues, dataplane threads, load
    generators — is driven by this loop.

    An event is either a thunk ({!at}, {!after}) or posted data
    ({!post_after}): a handler registered once with {!handler}
    plus an [int] argument.  Both kinds share one queue and one
    insertion sequence.  The queue is a binary min-heap on (time, seq)
    held in [int] arrays, and popping an event allocates nothing; the
    clock is re-boxed only when time advances.  A posted event therefore
    costs no closure and no allocation beyond that clock box, which is
    why per-hop component state machines (the {!Reflex_net} fabric)
    post their steps. *)

type t

(** Handle for a scheduled event, usable with {!cancel}.  Immediate
    (unboxed) value: events live in an internal arena and are recycled
    when popped; the handle packs the arena slot with a generation
    counter so stale handles are harmless. *)
type event_id

(** A handle that names no event: {!cancel} ignores it and {!cancelled}
    holds for it.  The blank of a table of handles. *)
val no_event : event_id

(** [create ?seed ()] — a fresh simulation at time zero. *)
val create : ?seed:int64 -> unit -> t

(** Current virtual time. *)
val now : t -> Time.t

(** Root PRNG stream for this simulation; [Prng.split] it per component. *)
val prng : t -> Prng.t

(** [at t time f] schedules [f] at absolute [time] (must be >= now). *)
val at : t -> Time.t -> (unit -> unit) -> event_id

(** [after t delay f] schedules [f] at [now + delay]. *)
val after : t -> Time.t -> (unit -> unit) -> event_id

(** {1 Posted events} *)

(** [handler t f] registers [f] and returns its id for {!post_after}.
    Register once, when a component is created; the table only grows. *)
val handler : t -> (int -> unit) -> int

(** [post_after t delay h arg] schedules handler [h] applied to [arg] at
    [now + delay] ([delay >= 0]).  Posted events cannot be cancelled. *)
val post_after : t -> Time.t -> int -> int -> unit

(** {1 Control} *)

(** Cancel a pending event.  Cancelling an already-fired or already-
    cancelled event is a no-op (the stale generation in the handle makes
    this safe even after the arena slot is recycled).  Cancellation
    immediately drops the event's action closure (so payloads captured
    by a cancelled timer — e.g. a retry deadline whose request completed
    — are collectable before the queue entry is popped); the entry
    itself is skipped lazily when its time comes. *)
val cancel : t -> event_id -> unit

(** Whether the event is no longer going to run (observability for
    tests): true for cancelled events and for events that already
    retired — fired, or popped after cancellation. *)
val cancelled : t -> event_id -> bool

(** Run until the event queue drains or [until] (inclusive) is reached.
    Returns the number of events executed by this call. *)
val run : ?until:Time.t -> t -> int

(** Total number of events executed since [create]. *)
val events_executed : t -> int

(** Number of events currently pending. *)
val pending : t -> int

(** Pending events excluding daemons and cancelled events — what
    actually keeps {!run} going.  Use this when polling for outstanding
    work (daemons never drain, and a pile of cancelled retry timers is
    dead weight, not work). *)
val live_pending : t -> int

(** Run [f now] every [every] until [until]. *)
val every : t -> every:Time.t -> until:Time.t -> (Time.t -> unit) -> unit

(** Periodic daemon tick: runs [f now] every [every] for as long as
    non-daemon work remains, without ever keeping the simulation alive by
    itself ({!run} stops as soon as only daemon events remain; a daemon
    skipped at the end of one [run] resumes if new work arrives).  At
    most one long-lived periodic daemon per simulation is recommended
    (two daemons would keep each other alive across one extra tick after
    the workload drains). *)
val every_daemon : t -> every:Time.t -> (Time.t -> unit) -> unit
