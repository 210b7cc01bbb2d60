(** Rack timeline rollup: merge per-server flight-ring snapshots and the
    rack-lane ring (balance/migrate records) into one time-ordered
    artifact.

    Lanes are fixed — pid 0 is the rack lane, pid [i+1] is server [i] —
    and the merge order is total: records sort by (time, lane, in-lane
    index), so rendering the same snapshots is byte-identical across
    reruns and [--jobs] fan-out. *)

module Flight = Reflex_obs.Flight

(** [chrome_trace ~server_snaps ~rack_snap] renders a Chrome
    [chrome://tracing] / Perfetto JSON document: one process lane per
    server plus the rack lane, hop stamps as instant events (tid = stamp
    index), and [Follows_from] flow arrows ([ph s]/[ph f]) from each
    migration record to the first post-migration pick of that tenant on
    the destination lane.  A trailing ["lanes"] array carries per-lane
    per-kind written/retained/dropped wraparound accounting. *)
val chrome_trace :
  server_snaps:Flight.snapshot array -> rack_snap:Flight.snapshot -> string

(** [stitch ~server_snaps ~rack_snap] renders the causal span trees as
    text: every traced rid in ascending order, its [Follows_from]
    migration parent when one precedes the pick, and its hop chain in
    stamp order — the rerun determinism witness used by the test
    suite. *)
val stitch : server_snaps:Flight.snapshot array -> rack_snap:Flight.snapshot -> string

(** One line per lane: events in window, records ever written, hop
    retained/written/dropped. *)
val lane_summary :
  server_snaps:Flight.snapshot array -> rack_snap:Flight.snapshot -> string
