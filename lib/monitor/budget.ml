(* SRE-style SLO error budgets.

   An SLO of the form "fraction [target] of requests complete within the
   tenant's latency bound" implies an error budget of [1 - target]: the
   fraction of requests allowed to miss the bound.  A budget accumulates
   over the whole run.  The *burn rate* of a window is how fast that
   budget is being consumed relative to plan:

       burn = bad_fraction / (1 - target)

   burn = 1 means the budget is being spent exactly at the sustainable
   rate; burn = 14 means it is being spent 14 times as fast.

   All arithmetic is plain float over windowed good/bad counts coming
   out of Tsdb delta histograms, so same-seed runs reproduce the exact
   same burn-rate sequence bit for bit. *)

type t = {
  tenant : int;
  target : float; (* availability target in (0,1), e.g. 0.999 *)
  mutable good : float; (* cumulative within-SLO requests *)
  mutable bad : float; (* cumulative SLO-violating requests *)
}

let create ~tenant ~target =
  if not (target > 0.0 && target < 1.0) then
    invalid_arg "Budget.create: target must be in (0,1)";
  { tenant; target; good = 0.0; bad = 0.0 }

(* Pure burn-rate arithmetic, exposed for the rule engine and unit
   tests.  [good]/[bad] are windowed counts; an empty window burns
   nothing. *)
let burn_rate_of ~target ~good ~bad =
  let total = good +. bad in
  if total <= 0.0 then 0.0
  else
    let bad_fraction = bad /. total in
    bad_fraction /. (1.0 -. target)

let record t ~good ~bad =
  if good < 0.0 || bad < 0.0 then invalid_arg "Budget.record: negative counts";
  t.good <- t.good +. good;
  t.bad <- t.bad +. bad

let total t = t.good +. t.bad

(* Fraction of the budget consumed so far: observed bad fraction over
   the allowance.  >= 1 means the budget is exhausted. *)
let consumed t =
  let tot = total t in
  if tot <= 0.0 then 0.0 else t.bad /. tot /. (1.0 -. t.target)

(* Cumulative burn rate since the budget was created (not windowed). *)
let burn_rate t = burn_rate_of ~target:t.target ~good:t.good ~bad:t.bad

let pp ppf t =
  Fmt.pf ppf "tenant %d: target=%.4f bad=%.0f/%.0f consumed=%.1f%% burn=%.2f" t.tenant
    t.target t.bad (total t) (100.0 *. consumed t) (burn_rate t)
