(** Ring-buffered windowed time-series store, sampled on the DES clock.

    One {!t} per monitored world.  It has no clock of its own: its owner
    ticks it ({!Monitor.tick}, or the rack monitor's periodic tick).
    Sources are registered once; every {!tick} closes a window holding,
    per source:

    - {e cumulative} sources: the delta since the previous tick (turn
      counters into windowed rates);
    - {e histogram} sources: the {e delta histogram} between two
      mergeable snapshots ({!Reflex_stats.Hdr_histogram.copy}/[diff]),
      so windowed p95/p99 are exact bucket-count deltas rather than
      approximations over a decaying aggregate;
    - {e derived} sources: a function of the window being closed (e.g.
      SLO violations = [count_above] of the window's latency delta).

    Same zero-overhead-when-disabled contract as {!Telemetry}: every
    operation on the shared {!disabled} instance is a no-op, and the
    instance is never mutated (domain-safe).  All iteration is
    name-sorted, so queries are byte-identical across runs and domains. *)

open Reflex_engine
open Reflex_stats

(** One closed window.  [w_values]/[w_hists] are name-sorted. *)
type window = private {
  w_start : Time.t;
  w_stop : Time.t;
  w_values : (string * float) array;
  w_hists : (string * Hdr_histogram.t) array;
}

type t

val disabled : t

(** [create ()] retains the newest [capacity] (default 512) windows.
    The owner ticks it: {!Monitor} from its daemon, a rack monitor from
    its periodic tick. *)
val create : ?capacity:int -> unit -> t

(** {1 Sources}  Registering a duplicate name raises [Invalid_argument];
    all registration is a no-op on a disabled instance. *)

val register_cumulative : t -> string -> (unit -> float) -> unit
val register_hist : t -> string -> Hdr_histogram.t -> unit

(** Computed from the window being closed, after base sources. *)
val register_derived : t -> string -> (window -> float) -> unit

(** {1 Sampling} *)

(** Close the window [(previous tick, now]].  No-op unless [now] has
    advanced. *)
val tick : t -> now:Time.t -> unit

(** {1 Queries} *)

(** Windows ever closed, including evicted ones. *)
val windows_closed : t -> int

val last : t -> window option

val value : window -> string -> float option
val hist : window -> string -> Hdr_histogram.t option

(** Sum of a value series over the newest [k] windows (missing names
    contribute 0). *)
val sum_last : t -> k:int -> string -> float

val span_us : window -> float
