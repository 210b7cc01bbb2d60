(** Discrete-event simulation kernel used by every ReFlex component.

    - {!Time}: int64-nanosecond virtual time
    - {!Prng}: deterministic splitmix64 random streams
    - {!Heap}: binary min-heap; the wheel's overflow queue and the test
      oracle for its (time, seq) order
    - {!Wheel}: hierarchical timing wheel, the event queue of {!Sim}
    - {!Sim}: the event loop
    - {!Resource}: multi-server FIFO queues with two priorities
    - {!Cell}: a flat mutable float, written without boxing *)

module Time = Time
module Prng = Prng
module Heap = Heap
module Wheel = Wheel
module Sim = Sim
module Resource = Resource
module Cell = Cell
