(** Measurement toolkit: histograms, reservoir samples, fitting and
    table rendering used across experiments. *)

module Hdr_histogram = Hdr_histogram
module Reservoir = Reservoir
module Linear_fit = Linear_fit
module Table = Table
