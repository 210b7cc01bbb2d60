open Reflex_engine
open Reflex_telemetry
module Flight = Reflex_obs.Flight
module Profiler = Reflex_obs.Profiler

type 'a submission = { tenant_id : int; cost : float; payload : 'a }

type 'a t = {
  neg_limit : float;
  donate_fraction : float;
  global : Global_bucket.t;
  thread_id : int;
  notify_control_plane : int -> unit;
  (* Observability sink; [Telemetry.disabled] by default, in which case
     every record site below is skipped by a single immutable-bool read
     and the scheduling round stays allocation-free. *)
  telemetry : Telemetry.t;
  (* Always-on flight recorder and cost profiler, cached off the telemetry
     instance at creation (attach via [Telemetry.set_flight] /
     [set_profiler] before building the world).  Both default to the
     shared disabled instances, costing one immutable-bool read per site. *)
  flight : Flight.t;
  profiler : Profiler.t;
  (* Tenant sets live in growable arrays: the first [lc_n]/[be_n] slots
     are the members, in insertion order.  Appends are amortized O(1)
     (the old [t.lc @ [tenant]] was O(n) per add, O(n^2) for a fleet). *)
  mutable lc : 'a Tenant.t array;
  mutable lc_n : int;
  mutable be : 'a Tenant.t array;
  mutable be_n : int;
  by_id : (int, 'a Tenant.t) Hashtbl.t; (* O(1) lookup on the request path *)
  mutable be_cursor : int; (* round-robin start for fairness *)
  mutable prev_sched_time : Time.t option;
  (* Incrementally maintained sum of every member tenant's demand, so
     [backlog] is O(1) and allocation-free on the per-cycle path (the
     dataplane consults it every finish_cycle).  Updated via each
     tenant's demand listener, which also covers direct queue drains
     (detach). *)
  mutable backlog_agg : float;
}

let create ?(neg_limit = -50.0) ?(donate_fraction = 0.9) ~global ~thread_id
    ?(notify_control_plane = fun _ -> ()) ?(telemetry = Telemetry.disabled) () =
  if neg_limit > 0.0 then invalid_arg "Scheduler.create: neg_limit must be <= 0";
  if donate_fraction < 0.0 || donate_fraction > 1.0 then
    invalid_arg "Scheduler.create: donate_fraction in [0,1]";
  if Telemetry.enabled telemetry then begin
    (* All schedulers of a world share one bucket; re-registration from
       each thread replaces the gauge with an equivalent closure. *)
    Telemetry.register_gauge telemetry "qos/global_bucket/level" (fun () ->
        Global_bucket.level global);
    Telemetry.register_gauge telemetry "qos/global_bucket/resets" (fun () ->
        float_of_int (Global_bucket.resets global))
  end;
  {
    neg_limit;
    donate_fraction;
    global;
    thread_id;
    notify_control_plane;
    telemetry;
    flight = Telemetry.flight telemetry;
    profiler = Telemetry.profiler telemetry;
    lc = [||];
    lc_n = 0;
    be = [||];
    be_n = 0;
    by_id = Hashtbl.create 64;
    be_cursor = 0;
    prev_sched_time = None;
    backlog_agg = 0.0;
  }

(* Per-tenant observability dimensions.  Gauges are registered when the
   tenant joins a scheduler and removed when it leaves; names are stable
   across threads so a rebalanced tenant keeps its series. *)
let tenant_gauge_names tenant_id =
  let p = Printf.sprintf "qos/t%d/" tenant_id in
  [ p ^ "tokens"; p ^ "backlog"; p ^ "granted"; p ^ "debited" ]

let register_tenant_gauges t tenant =
  if Telemetry.enabled t.telemetry then begin
    match tenant_gauge_names (Tenant.id tenant) with
    | [ g_tokens; g_backlog; g_granted; g_debited ] ->
      Telemetry.register_gauge t.telemetry g_tokens (fun () -> Tenant.tokens tenant);
      Telemetry.register_gauge t.telemetry g_backlog (fun () -> Tenant.demand tenant);
      Telemetry.register_gauge t.telemetry g_granted (fun () -> Tenant.granted_total tenant);
      Telemetry.register_gauge t.telemetry g_debited (fun () ->
          Tenant.submitted_cost_total tenant);
      Telemetry.set_tenant_slo t.telemetry ~tenant:(Tenant.id tenant)
        ~latency_critical:(Tenant.is_latency_critical tenant)
        ~latency_us:(Tenant.slo tenant).Slo.latency_us
    | _ -> assert false
  end

let unregister_tenant_gauges t tenant_id =
  if Telemetry.enabled t.telemetry then
    List.iter (Telemetry.unregister t.telemetry) (tenant_gauge_names tenant_id)

(* Append [x] into the first free slot of [arr] (of which [n] are live),
   doubling capacity when full; returns the array to store back. *)
let grow_push arr n x =
  let arr =
    if n = Array.length arr then begin
      let narr = Array.make (if n = 0 then 8 else 2 * n) x in
      Array.blit arr 0 narr 0 n;
      narr
    end
    else arr
  in
  arr.(n) <- x;
  arr

let add_tenant t tenant =
  if Hashtbl.mem t.by_id (Tenant.id tenant) then
    invalid_arg "Scheduler.add_tenant: duplicate tenant id";
  Hashtbl.replace t.by_id (Tenant.id tenant) tenant;
  if Tenant.is_latency_critical tenant then begin
    t.lc <- grow_push t.lc t.lc_n tenant;
    t.lc_n <- t.lc_n + 1
  end
  else begin
    t.be <- grow_push t.be t.be_n tenant;
    t.be_n <- t.be_n + 1
  end;
  t.backlog_agg <- t.backlog_agg +. Tenant.demand tenant;
  Tenant.set_demand_listener tenant (fun delta -> t.backlog_agg <- t.backlog_agg +. delta);
  register_tenant_gauges t tenant

(* Single-pass, order-preserving removal from the live prefix of [arr].
   Returns the new live count.  The vacated slot is re-pointed at a
   still-live tenant (or the array dropped when it empties) so the
   scheduler does not pin removed tenants. *)
let remove_from arr n tenant_id =
  let j = ref 0 in
  for i = 0 to n - 1 do
    if Tenant.id arr.(i) <> tenant_id then begin
      if !j < i then arr.(!j) <- arr.(i);
      incr j
    end
  done;
  (if !j < n && !j > 0 then arr.(!j) <- arr.(0));
  !j

let remove_tenant t tenant_id =
  match Hashtbl.find_opt t.by_id tenant_id with
  | None -> ()
  | Some tenant ->
    Hashtbl.remove t.by_id tenant_id;
    Tenant.clear_demand_listener tenant;
    unregister_tenant_gauges t tenant_id;
    t.backlog_agg <- t.backlog_agg -. Tenant.demand tenant;
    if t.backlog_agg < 0.0 then t.backlog_agg <- 0.0;
    if Tenant.is_latency_critical tenant then begin
      t.lc_n <- remove_from t.lc t.lc_n tenant_id;
      if t.lc_n = 0 then t.lc <- [||]
    end
    else begin
      t.be_n <- remove_from t.be t.be_n tenant_id;
      if t.be_n = 0 then t.be <- [||];
      (* Keep the historical cursor behavior: clamp into the shrunk set. *)
      if t.be_n > 0 then t.be_cursor <- t.be_cursor mod t.be_n else t.be_cursor <- 0
    end

let tenants t =
  List.init t.lc_n (fun i -> t.lc.(i)) @ List.init t.be_n (fun i -> t.be.(i))

let iter_lc t f =
  for i = 0 to t.lc_n - 1 do
    f t.lc.(i)
  done

let iter_be t f =
  for i = 0 to t.be_n - 1 do
    f t.be.(i)
  done

let find_tenant t tenant_id = Hashtbl.find_opt t.by_id tenant_id
let tenant_count t = Hashtbl.length t.by_id

let enqueue t ~tenant_id ~cost req =
  match find_tenant t tenant_id with
  | Some tenant -> Tenant.enqueue tenant ~cost req
  | None -> raise Not_found

(* O(1), allocation-free: the listener-maintained aggregate.  Clamp tiny
   negative float drift so idle detection stays exact. *)
let backlog t = if t.backlog_agg <= 0.0 then 0.0 else t.backlog_agg

(* Request count across tenant software queues.  An O(live tenants)
   sweep over the member arrays (insertion order, no Hashtbl walk):
   this backs the rack layer's periodic queue-depth probes, which run
   every few hundred microseconds, not every dataplane cycle. *)
let queue_depth t =
  let n = ref 0 in
  for i = 0 to t.lc_n - 1 do
    n := !n + Tenant.queue_length t.lc.(i)
  done;
  for i = 0 to t.be_n - 1 do
    n := !n + Tenant.queue_length t.be.(i)
  done;
  !n

(* Submit requests off [tenant]'s queue while there is demand and the
   balance stays above [floor]; returns the count submitted. *)
let submit_while tenant ~floor ~submit =
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    if Tenant.demand tenant > 0.0 && Tenant.tokens tenant > floor then begin
      match Tenant.dequeue tenant with
      | Some (cost, payload) ->
        Tenant.spend_tokens tenant cost;
        Tenant.note_submitted tenant cost;
        submit { tenant_id = Tenant.id tenant; cost; payload };
        incr n
      | None -> continue := false
    end
    else continue := false
  done;
  !n

(* BE variant: a request is submitted only if the tenant can fully pay. *)
let submit_admissible tenant ~submit =
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Tenant.peek_cost tenant with
    | Some cost when cost <= Tenant.tokens tenant -> (
      match Tenant.dequeue tenant with
      | Some (cost, payload) ->
        Tenant.spend_tokens tenant cost;
        Tenant.note_submitted tenant cost;
        submit { tenant_id = Tenant.id tenant; cost; payload };
        incr n
      | None -> continue := false)
    | _ -> continue := false
  done;
  !n

let schedule t ~now ~submit =
  Profiler.enter t.profiler Profiler.Subsystem.Qos;
  let time_delta =
    match t.prev_sched_time with
    | None -> 0.0
    | Some prev -> Time.to_float_sec (Time.diff now prev)
  in
  t.prev_sched_time <- Some now;
  (* Read once; telemetry-off rounds pay exactly these immutable-bool
     tests and stay allocation-free.  The flight recorder has its own
     bit: it stays armed even when full telemetry is off, and its record
     sites are plain array stores (see lib/obs/flight.ml). *)
  let tel_on = Telemetry.enabled t.telemetry in
  let fl = t.flight in
  let fl_on = Flight.enabled fl in
  let submitted = ref 0 in
  (* Latency-critical tenants first (Algorithm 1, lines 4-12). *)
  for i = 0 to t.lc_n - 1 do
    let tenant = t.lc.(i) in
    let grant = Tenant.token_rate tenant *. time_delta in
    Tenant.add_tokens tenant grant;
    Tenant.record_grant tenant grant;
    if fl_on then
      Flight.record fl ~now ~kind:Flight.Kind.Refill ~a:(Tenant.id tenant) ~b:t.thread_id
        ~v:grant;
    if Tenant.tokens tenant < t.neg_limit then begin
      t.notify_control_plane (Tenant.id tenant);
      if fl_on then
        Flight.record fl ~now ~kind:Flight.Kind.Deficit ~a:(Tenant.id tenant) ~b:t.thread_id
          ~v:(Tenant.tokens tenant)
    end;
    let n_lc = submit_while tenant ~floor:t.neg_limit ~submit in
    submitted := !submitted + n_lc;
    if fl_on && n_lc > 0 then
      Flight.record fl ~now ~kind:Flight.Kind.Grant ~a:(Tenant.id tenant) ~b:n_lc
        ~v:(Tenant.tokens tenant);
    (* Demand left after the submit loop means the balance hit the floor:
       the scheduler is actively throttling this LC tenant. *)
    if fl_on && Tenant.demand tenant > 0.0 then
      Flight.record fl ~now ~kind:Flight.Kind.Throttle ~a:(Tenant.id tenant) ~b:t.thread_id
        ~v:(Tenant.demand tenant);
    let pos_limit = Tenant.pos_limit tenant in
    if Tenant.tokens tenant > pos_limit then begin
      let donation = Tenant.tokens tenant *. t.donate_fraction in
      Global_bucket.add t.global donation;
      Tenant.spend_tokens tenant donation;
      if fl_on then
        Flight.record fl ~now ~kind:Flight.Kind.Donate ~a:(Tenant.id tenant) ~b:t.thread_id
          ~v:donation
    end
  done;
  (* Best-effort tenants in round-robin order (lines 13-21). *)
  let n_be = t.be_n in
  for k = 0 to n_be - 1 do
    let tenant = t.be.((t.be_cursor + k) mod n_be) in
    let grant = Tenant.token_rate tenant *. time_delta in
    Tenant.add_tokens tenant grant;
    if tel_on then Tenant.note_granted tenant grant;
    if fl_on then
      Flight.record fl ~now ~kind:Flight.Kind.Refill ~a:(Tenant.id tenant) ~b:t.thread_id
        ~v:grant;
    let deficit = Tenant.demand tenant -. Tenant.tokens tenant in
    if deficit > 0.0 then begin
      let taken = Global_bucket.try_take t.global deficit in
      Tenant.add_tokens tenant taken;
      if fl_on && taken > 0.0 then
        Flight.record fl ~now ~kind:Flight.Kind.Bucket_take ~a:(Tenant.id tenant)
          ~b:t.thread_id ~v:taken
    end;
    let n_sub = submit_admissible tenant ~submit in
    submitted := !submitted + n_sub;
    if fl_on && n_sub > 0 then
      Flight.record fl ~now ~kind:Flight.Kind.Grant ~a:(Tenant.id tenant) ~b:n_sub
        ~v:(Tenant.tokens tenant);
    if fl_on && Tenant.demand tenant > 0.0 then
      Flight.record fl ~now ~kind:Flight.Kind.Throttle ~a:(Tenant.id tenant) ~b:t.thread_id
        ~v:(Tenant.demand tenant);
    (* DRR-inspired: no token hoarding while idle. *)
    if Tenant.tokens tenant > 0.0 && Tenant.demand tenant = 0.0 then begin
      let drained = Tenant.drain_tokens tenant in
      Global_bucket.add t.global drained;
      if fl_on && drained > 0.0 then
        Flight.record fl ~now ~kind:Flight.Kind.Idle_drain ~a:(Tenant.id tenant)
          ~b:t.thread_id ~v:drained
    end
  done;
  if n_be > 0 then t.be_cursor <- (t.be_cursor + 1) mod n_be;
  let reset = Global_bucket.mark_round t.global ~thread_id:t.thread_id in
  if fl_on && reset then
    Flight.record fl ~now ~kind:Flight.Kind.Bucket_reset ~a:(-1) ~b:t.thread_id
      ~v:(Global_bucket.level t.global);
  Profiler.leave t.profiler Profiler.Subsystem.Qos;
  !submitted
