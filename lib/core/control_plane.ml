open Reflex_qos

(* Analytic stand-in for a measured Calibrate.max_token_rate curve: the
   sustainable token rate grows slowly (logarithmically) with the latency
   budget and saturates at the device's raw token capacity. *)
let default_token_rate_fn profile ~latency_us =
  let cap = Reflex_flash.Device_profile.token_capacity profile in
  let f = 0.55 +. (0.1 *. (log (latency_us /. 100.0) /. log 2.0)) in
  cap *. Float.max 0.3 (Float.min 1.0 f)

(* Admit LC tenants only up to this fraction of the sustainable rate. *)
let admission_margin = 0.85

type t = {
  token_rate_fn : latency_us:float -> float;
  cost_model : Cost_model.t;
  tenants : (int, Slo.t) Hashtbl.t;
  (* Incremental aggregates so admission stays O(1) with thousands of
     tenants (paper §5.5): *)
  mutable non_ro_tenants : int;  (** tenants declaring a mix with writes *)
  mutable be_tenants : int;
  mutable lc_reserved_mixed : float;  (** sum of mixed-priced LC rates *)
  mutable strictest : float option;  (** cached; recomputed on forget *)
  mutable capacity_factor : float;
      (** in (0,1]: fraction of calibrated capacity currently usable —
          lowered by the resilience layer when the device degrades
          (die failures, GC storms) and restored on recovery *)
}

let create ~profile ~cost_model () =
  {
    token_rate_fn = default_token_rate_fn profile;
    cost_model;
    tenants = Hashtbl.create 64;
    non_ro_tenants = 0;
    be_tenants = 0;
    lc_reserved_mixed = 0.0;
    strictest = None;
    capacity_factor = 1.0;
  }

type admission = Admitted | Rejected_no_capacity | Rejected_duplicate

let set_capacity_factor t f =
  if f <= 0.0 || f > 1.0 then invalid_arg "Control_plane.set_capacity_factor: factor in (0,1]";
  t.capacity_factor <- f

let capacity_factor t = t.capacity_factor

(* Key-sorted iteration over latency-critical tenants: callers' folds
   see a deterministic order regardless of Hashtbl layout, so list- and
   report-building folds are reproducible by construction. *)
let fold_lc t f init =
  let lc =
    Hashtbl.fold
      (fun id slo acc -> if Slo.is_latency_critical slo then (id, slo) :: acc else acc)
      t.tenants []
  in
  List.fold_left
    (fun acc (id, slo) -> f id slo acc)
    init
    (List.sort (fun (a, _) (b, _) -> compare (a : int) b) lc)

let min_opt acc v = match acc with None -> Some v | Some x -> Some (Float.min x v)

let strictest_latency_us_with t extra =
  match extra with
  | Some slo when Slo.is_latency_critical slo ->
    min_opt t.strictest (float_of_int slo.Slo.latency_us)
  | _ -> t.strictest

let strictest_latency_us t = t.strictest

(* When only BE tenants exist, there is no latency constraint: the device
   may be driven to its loose-SLO ceiling. *)
let unconstrained_latency_us = 10_000.0

let total_rate_at t strictest =
  let latency_us = Option.value strictest ~default:unconstrained_latency_us in
  t.token_rate_fn ~latency_us *. t.capacity_factor

(* When every registered tenant declares a pure-read mix, the device
   stays on its read-only fast path and reads cost C(read, 100%) instead
   of a full token — this is what lets a 1M-IOPS read-only fleet fit in
   the token budget (paper §5.5's tenant-scaling experiment).  Tenants
   that write while declaring reads-only are caught by the scheduler's
   deficit limit and flagged for SLO renegotiation. *)
let all_read_only_with t extra =
  t.non_ro_tenants = 0
  && (match extra with Some slo -> slo.Slo.read_pct = 100 | None -> true)

let weighted_ro t ~read_only (slo : Slo.t) =
  let base =
    Cost_model.weighted_rate t.cost_model ~iops:slo.Slo.iops ~read_ratio:(Slo.read_ratio slo)
  in
  if read_only then base *. t.cost_model.Cost_model.ro_read_cost else base

let weighted t (slo : Slo.t) = weighted_ro t ~read_only:(all_read_only_with t None) slo

let mixed_rate t (slo : Slo.t) =
  Cost_model.weighted_rate t.cost_model ~iops:slo.Slo.iops ~read_ratio:(Slo.read_ratio slo)

let lc_reserved_with t extra =
  let read_only = all_read_only_with t extra in
  let scale = if read_only then t.cost_model.Cost_model.ro_read_cost else 1.0 in
  let base = t.lc_reserved_mixed *. scale in
  match extra with
  | Some slo when Slo.is_latency_critical slo -> base +. weighted_ro t ~read_only slo
  | _ -> base

let record t ~id ~slo =
  Hashtbl.replace t.tenants id slo;
  if slo.Slo.read_pct <> 100 then t.non_ro_tenants <- t.non_ro_tenants + 1;
  if Slo.is_latency_critical slo then begin
    t.lc_reserved_mixed <- t.lc_reserved_mixed +. mixed_rate t slo;
    t.strictest <- min_opt t.strictest (float_of_int slo.Slo.latency_us)
  end
  else t.be_tenants <- t.be_tenants + 1

let admit t ~id ~slo =
  if Hashtbl.mem t.tenants id then Rejected_duplicate
  else if not (Slo.is_latency_critical slo) then begin
    record t ~id ~slo;
    Admitted
  end
  else begin
    let strictest = strictest_latency_us_with t (Some slo) in
    let capacity = total_rate_at t strictest *. admission_margin in
    let reserved = lc_reserved_with t (Some slo) in
    if reserved <= capacity then begin
      record t ~id ~slo;
      Admitted
    end
    else Rejected_no_capacity
  end

let can_admit t ~slo =
  if not (Slo.is_latency_critical slo) then true
  else begin
    let strictest = strictest_latency_us_with t (Some slo) in
    let capacity = total_rate_at t strictest *. admission_margin in
    lc_reserved_with t (Some slo) <= capacity
  end

let headroom_with t ~candidate =
  let strictest = strictest_latency_us_with t (Some candidate) in
  let capacity = total_rate_at t strictest *. admission_margin in
  capacity -. lc_reserved_with t (Some candidate)

let forget t ~id =
  match Hashtbl.find_opt t.tenants id with
  | None -> ()
  | Some slo ->
    Hashtbl.remove t.tenants id;
    if slo.Slo.read_pct <> 100 then t.non_ro_tenants <- t.non_ro_tenants - 1;
    if Slo.is_latency_critical slo then begin
      t.lc_reserved_mixed <- Float.max 0.0 (t.lc_reserved_mixed -. mixed_rate t slo);
      (* Recompute the cached strictest SLO (rare path).  With no LC
         tenant left the reservation is exactly zero, not the float
         residue of the subtractions. *)
      t.strictest <-
        fold_lc t (fun _ s acc -> min_opt acc (float_of_int s.Slo.latency_us)) None;
      if t.strictest = None then t.lc_reserved_mixed <- 0.0
    end
    else t.be_tenants <- t.be_tenants - 1
let is_registered t ~id = Hashtbl.mem t.tenants id
let total_token_rate t = total_rate_at t (strictest_latency_us t)
let lc_reserved_rate t = lc_reserved_with t None

let be_share t =
  let n = t.be_tenants in
  if n = 0 then 0.0
  else Float.max 0.0 ((total_token_rate t -. lc_reserved_rate t) /. float_of_int n)

let token_rate_for t ~id =
  match Hashtbl.find_opt t.tenants id with
  | None -> None
  | Some slo -> Some (if Slo.is_latency_critical slo then weighted t slo else be_share t)

let current_rates t =
  Hashtbl.fold
    (fun id slo acc ->
      let rate = if Slo.is_latency_critical slo then weighted t slo else be_share t in
      (id, rate) :: acc)
    t.tenants []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let registered_count t = Hashtbl.length t.tenants
let fleet_read_only t = all_read_only_with t None

(* LC tenants with their SLOs, loosest latency bound first — the order in
   which degradation-driven demotion sheds reservations (shedding the
   loosest reservation disturbs the strictest-SLO pricing least). *)
let lc_tenants t =
  fold_lc t (fun id slo acc -> (id, slo) :: acc) []
  |> List.sort (fun (ia, a) (ib, b) ->
         match compare b.Slo.latency_us a.Slo.latency_us with 0 -> compare ia ib | c -> c)
