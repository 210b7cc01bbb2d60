(** One module per table/figure in the paper's evaluation (§5).  Each
    [run] returns structured rows; each [to_table] renders them like the
    paper reports them.  See DESIGN.md for the experiment index and
    EXPERIMENTS.md for paper-vs-measured results. *)

module Runner = Runner
module Identity = Identity
module Common = Common
module Fig1 = Fig1
module Fig3 = Fig3
module Table2 = Table2
module Fig4 = Fig4
module Fig5 = Fig5
module Fig6 = Fig6
module Fig7 = Fig7
module Ablations = Ablations
module Tracing = Tracing
module Chaos = Chaos
module Monitor_exp = Monitor_exp
module Obs_exp = Obs_exp
module Rack_exp = Rack_exp
