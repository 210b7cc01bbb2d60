(** Renderers for a {!Flight.snapshot}: the JSON forensic debrief and the
    Chrome [trace_event] view of an alert-triggered flight dump.

    Both renderers are pure functions of the snapshot plus the optional
    trigger cross-references, and both format with fixed-width sim-time
    microseconds only — no wall clock, no host state — so a dump is
    byte-identical across same-seed reruns and serial vs. parallel
    fan-out. *)

open Reflex_engine

(** The alert edge that triggered the dump: [(rule, fired_at, detail)]. *)
type trigger = string * Time.t * string

(** Fault windows as exported by [Telemetry.fault_windows]:
    [(label, start, stop)] with [stop = None] while still active. *)
type fault_window = string * Time.t * Time.t option

(** [debrief ?alert ?faults snap] renders the JSON forensic debrief:
    trigger alert, fault windows overlapping the snapshot window (flagged
    [active_at_trigger] when they straddle the trigger instant), per-kind
    record counts, and every record in the window. *)
val debrief : ?alert:trigger -> ?faults:fault_window list -> Flight.snapshot -> string

(** [to_chrome_json ?alert ?faults snap] renders the snapshot as a Chrome
    [chrome://tracing] / Perfetto trace: token levels and queue depths as
    counter tracks, grants/throttles/alert edges as instants, fault windows
    as duration slices. *)
val to_chrome_json :
  ?alert:trigger -> ?faults:fault_window list -> Flight.snapshot -> string
