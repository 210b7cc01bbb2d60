(* Re-export umbrella for the observability library. *)

module Corr = Corr
module Cursor = Cursor
module Flight = Flight
module Flight_dump = Flight_dump
module Profiler = Profiler
module Stage = Stage
module Trace_event = Trace_event
