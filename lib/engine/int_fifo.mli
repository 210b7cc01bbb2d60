(** A growable FIFO of [int]s: a ring over one [int array] with
    power-of-two capacity, doubled on demand.  Pushing and popping
    allocate nothing once the ring has grown to its high-water mark, so
    components keep queues of slot ids here (a fabric link's waiting
    messages, a dataplane thread's receive ring). *)

type t

(** An empty FIFO holding no storage until the first {!push}. *)
val create : unit -> t

val length : t -> int
val push : t -> int -> unit

(** The oldest element.  Raises [Invalid_argument] when empty. *)
val peek : t -> int

(** Remove and return the oldest element.  Raises [Invalid_argument]
    when empty. *)
val pop : t -> int
