(** Discrete-event simulation kernel used by every ReFlex component.

    - {!Time}: int64-nanosecond virtual time
    - {!Prng}: deterministic splitmix64 random streams
    - {!Sim}: the event loop and its (time, seq) min-heap queue
    - {!Resource}: multi-server FIFO queues with two priorities
    - {!Cell}: a flat mutable float, written without boxing
    - {!Int_fifo}: a growable ring of ints (queued slot ids) *)

module Time = Time
module Prng = Prng
module Sim = Sim
module Resource = Resource
module Cell = Cell
module Int_fifo = Int_fifo
