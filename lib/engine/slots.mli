(** The freelist of an int-slot arena.  An owner keeps its slots' fields
    in parallel arrays of its own, indexed by slot, and takes slots from
    here: [alloc] and [free] allocate nothing once the arena has grown
    to its high-water mark.

    Capacity starts at 0 and doubles on demand.  The fresh slots of a
    growth come out lowest first, [old capacity] before any other, so an
    owner extends its field arrays (with {!extend}, to {!capacity}) when
    [alloc] returns a slot at or past their length.  A freed slot is
    reused before any fresh one, last freed first. *)

type t

(** [create first] is an empty arena whose first growth makes [first > 0]
    slots. *)
val create : int -> t

(** Slots made so far, free or live. *)
val capacity : t -> int

(** A free slot, doubling the capacity first when none is left. *)
val alloc : t -> int

(** Return a live slot.  Freeing a slot twice corrupts the arena. *)
val free : t -> int -> unit

(** [extend a n fill] is [a] copied into a fresh array of [n >= length
    a] cells, the rest [fill]: an owner's field arrays grow with it. *)
val extend : 'a array -> int -> 'a -> 'a array
