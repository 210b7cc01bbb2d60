(** Hierarchical timing wheel keyed by [(Time.t, sequence)] over [int]
    payloads — the {!Sim} event queue.

    Four levels of 256 slots with level-0 granularity 1.024 us give a
    ~73 minute in-wheel horizon; later events wait in an overflow heap
    and are pulled in as the cursor crosses top-level slot boundaries.
    Pop order is exactly (time, then seq) — identical to {!Heap}
    (asserted by the qcheck equivalence suite).

    Nodes live in a structure-of-arrays pool with an intrusive freelist:
    {!push}, {!pop} and {!pop_if_le} allocate nothing in steady state
    beyond the returned option/boxed time. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** [push t ~time ~seq v] inserts [v].  Times at or beyond 2^61 ns
    (including [Time.infinity]) are routed to the overflow heap. *)
val push : t -> time:Time.t -> seq:int -> int -> unit

(** Remove and return the smallest element. *)
val pop : t -> (Time.t * int * int) option

(** [pop_if_le t ~until] pops the smallest element only if its time is
    [<= until]; mirrors {!Heap.pop_if_le}. *)
val pop_if_le : t -> until:Time.t -> (Time.t * int * int) option

(** Empty the wheel.  Node-pool and ready-buffer capacity is kept; the
    cursor resets to zero. *)
val clear : t -> unit
