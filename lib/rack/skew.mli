(** Cross-server skew detector driving tenant migration.

    Fed one vector of per-server queue depths per probe tick (the same
    probe-aged samples the balancing policies see), it decides when one
    server is persistently hotter than the rack and names it.  Two
    conditions must hold simultaneously:

    - {e cross-sectional} outlier: the hottest server's depth sits
      one standard deviation above the rack mean {e right now}
      (spread computed across servers, floored at one request so an
      idle rack never divides by ~0);
    - {e persistent} imbalance: the max/mean depth ratio, smoothed
      through a {!Reflex_monitor.Detect.Ewma} baseline, exceeds
      2.0 — one spiky probe is not skew, and the EWMA's warmup
      also keeps the detector quiet for the first few ticks.

    Firings are rate-limited by [cooldown] so a migration gets time to
    land (registration + queue drain) before the next one is proposed.
    The detector is pure bookkeeping over the samples it is shown —
    deterministic given a deterministic probe sequence. *)

open Reflex_engine

type t

(** Default [cooldown = 2ms]. *)
val create : ?cooldown:Time.t -> unit -> t

(** [observe t ~now ~depths] folds one probe vector in and returns
    [Some hot_server] when skew is detected (and the cooldown has
    elapsed), [None] otherwise.  Needs at least two servers to define a
    cross-section; fewer always returns [None]. *)
val observe : t -> now:Time.t -> depths:int array -> int option

(** Number of times {!observe} returned [Some _]. *)
val fires : t -> int

(** Smoothed max/mean imbalance ratio (1.0 before any observation). *)
val imbalance : t -> float
