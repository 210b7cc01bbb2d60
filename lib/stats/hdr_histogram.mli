(** Log-bucketed latency histogram (HDR-histogram style).

    Records non-negative int64 values (nanoseconds in this repository) with
    a bounded relative error (~1.5% with the default 6 sub-bucket bits) and
    O(1) recording, so millions of request latencies can be captured with a
    few KB of memory.  Percentile queries return the upper edge of the
    bucket containing the requested rank. *)

type t

(** [create ()] covers values in [0, 2^62). *)
val create : unit -> t

val record : t -> int64 -> unit

(** [record_int t v] records the native-int value [v] (nanoseconds): the
    path [record] wraps, for callers that hold their values unboxed.
    Values at or above 2^62 - 1 are kept as 2^62 - 1 by [record]. *)
val record_int : t -> int -> unit

(** [record_n t v n] records [v] with multiplicity [n]. *)
val record_n : t -> int64 -> int -> unit

val count : t -> int

(** [percentile t p] with [p] in [0, 100]; raises [Invalid_argument] when
    [p] is out of range.

    Edge cases are defined: an {e empty} histogram returns [0L] for every
    [p] (it never raises), and the result is always clamped into
    [[min_value t, max_value t]], so a {e single-sample} histogram returns
    exactly that sample for every [p]. *)
val percentile : t -> float -> int64

val mean : t -> float
val min_value : t -> int64
val max_value : t -> int64

(** Merge [src] into [dst].  Commutative and associative on bucket counts,
    totals, sums and extrema — merging per-shard histograms in any order
    yields the same aggregate. *)
val merge : dst:t -> src:t -> unit

(** Independent snapshot of the current state ([record] on the original
    no longer affects it). *)
val copy : t -> t

(** [diff t ~since] is the histogram of exactly the values recorded into
    [t] after the snapshot [since] was taken ([Hdr_histogram.copy]): the
    windowed-percentile primitive ([diff (copy now) ~since:(copy earlier)]
    gives exact bucket counts for the interval, so windowed p95/p99 carry
    the same bounded relative error as the live histogram).  Counts, total
    and sum are exact deltas; min/max are reconstructed to bucket
    resolution.  @raise Invalid_argument when [since] is not an earlier
    snapshot of the same recording stream (some bucket would go
    negative). *)
val diff : t -> since:t -> t

(** Recorded values strictly above the bucket containing [v] — exact at
    bucket granularity (and exact for [v] < 64, the linear region). *)
val count_above : t -> int64 -> int

val reset : t -> unit

(** Convenience accessors in microseconds (latencies are stored in ns). *)
val percentile_us : t -> float -> float

val mean_us : t -> float
