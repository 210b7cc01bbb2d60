(** A flat mutable float.  A record whose fields are all floats is stored
    unboxed, so writing [v] allocates nothing, unlike a float field of a
    mixed record or a [float ref].  Hot paths keep shared float state in
    cells and update them in place: the QoS scheduler round (the global
    bucket's level, a thread's backlog) and the latency histograms' sum. *)

type t = { mutable v : float }
