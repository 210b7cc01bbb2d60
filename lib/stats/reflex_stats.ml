(** Measurement toolkit: histograms, fitting and table rendering used
    across experiments. *)

module Hdr_histogram = Hdr_histogram
module Linear_fit = Linear_fit
module Table = Table
