open Reflex_engine

(** Binary min-heap keyed by [(Time.t, sequence)]: the tests' reference
    event order.

    The sequence number breaks ties so that events scheduled for the same
    instant execute in FIFO order — essential for deterministic replay.
    [test_engine.ml]'s reference event loop runs on it, and {!Sim} must
    reproduce that loop's order.

    The heap stores keys and payloads in parallel arrays
    (structure-of-arrays), so {!push} allocates nothing in steady state:
    no per-entry box exists. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Allocated slot count of the backing key arrays.  Preserved across
    {!clear} so a reused heap does not re-climb the growth ladder. *)
val capacity : 'a t -> int

(** [push t ~time ~seq v] inserts [v]. *)
val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

(** Smallest element, or [None] when empty. *)
val peek : 'a t -> (Time.t * int * 'a) option

(** Remove and return the smallest element. *)
val pop : 'a t -> (Time.t * int * 'a) option

(** [pop_if_le t ~until] pops the smallest element only if its time is
    [<= until]; returns [None] when the heap is empty or the minimum is
    beyond the horizon.  Equivalent to a {!peek} guard followed by
    {!pop}, in a single traversal. *)
val pop_if_le : 'a t -> until:Time.t -> (Time.t * int * 'a) option

(** Empty the heap, dropping all references to stored values (the payload
    array is released, so cleared entries can be collected).  The numeric
    key arrays keep their capacity — see {!capacity} — and the payload
    array is re-made at full capacity on the next {!push}. *)
val clear : 'a t -> unit
