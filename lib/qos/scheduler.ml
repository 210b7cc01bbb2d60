(* Algorithm 1.  A round allocates nothing while the flight recorder is
   unarmed (an armed one boxes each record's [~v]), and a released
   request reaches [submit] as its bare payload, with no submission
   record.  The round reads and writes each tenant's flat [acct] fields
   and the global bucket's cell in place, and calls no function of
   another module with a float argument or result: under [-opaque] each
   such float would be boxed, once per tenant per round.  Each float update keeps the
   operands and the order it has: every render is pinned byte for byte
   (test/pins.md5, perfbench's sim_digest). *)

open Reflex_engine
open Reflex_telemetry
module Flight = Reflex_obs.Flight
module Profiler = Reflex_obs.Profiler

type 'a t = {
  neg_limit : float;
  donate_fraction : float;
  global : Global_bucket.t;
  bucket : Cell.t; (* [global]'s level, updated in place by the round *)
  thread_id : int;
  notify_control_plane : int -> unit;
  (* Observability sink; [Telemetry.disabled] by default, in which case
     every record site below is skipped by a single immutable-bool read. *)
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
  mutable scheduled : bool; (* a round has run: [prev_sched_time] is set *)
  mutable prev_sched_time : Time.t;
  (* Incrementally maintained sum of every member tenant's demand, so
     [backlog] is O(1) and allocation-free on the per-cycle path (the
     dataplane consults it every finish_cycle).  Each member tenant points
     at this cell and moves it on every enqueue and dequeue, which also
     covers a caller that drains a queue directly. *)
  backlog : Cell.t;
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
    bucket = Global_bucket.cell global;
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
    scheduled = false;
    prev_sched_time = Time.zero;
    backlog = { Cell.v = 0.0 };
  }

(* Per-tenant observability dimensions.  Gauges are registered when the
   tenant joins a scheduler and removed when it leaves; names carry no
   thread, so a tenant that re-registers on another thread keeps its
   series. *)
let tenant_gauge_names tenant_id =
  let p = Printf.sprintf "qos/t%d/" tenant_id in
  [ p ^ "tokens"; p ^ "backlog"; p ^ "granted"; p ^ "debited" ]

let register_tenant_gauges t tenant =
  if Telemetry.enabled t.telemetry then begin
    match tenant_gauge_names (Tenant.id tenant) with
    | [ g_tokens; g_backlog; g_granted; g_debited ] ->
      let a = tenant.Tenant.acct in
      Telemetry.register_gauge t.telemetry g_tokens (fun () -> a.tokens);
      Telemetry.register_gauge t.telemetry g_backlog (fun () -> a.demand);
      Telemetry.register_gauge t.telemetry g_granted (fun () -> a.granted_total);
      Telemetry.register_gauge t.telemetry g_debited (fun () -> a.submitted_cost);
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
  t.backlog.v <- t.backlog.v +. tenant.acct.demand;
  tenant.backlog <- t.backlog;
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
    (* A cell of its own, never a shared one: a removed tenant's later
       enqueues move nothing here (and nothing another Runner domain
       sees). *)
    tenant.backlog <- { Cell.v = 0.0 };
    unregister_tenant_gauges t tenant_id;
    t.backlog.v <- t.backlog.v -. tenant.acct.demand;
    if t.backlog.v < 0.0 then t.backlog.v <- 0.0;
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
let mem_tenant t tenant_id = Hashtbl.mem t.by_id tenant_id
let tenant_count t = Hashtbl.length t.by_id

(* [Hashtbl.find] raises [Not_found] for an unknown tenant itself: no
   option is built on the per-request path. *)
let enqueue t ~tenant_id ~cost req = Tenant.enqueue (Hashtbl.find t.by_id tenant_id) ~cost req

(* O(1): the cell the member tenants maintain.  Clamp tiny negative
   float drift so idle detection stays exact. *)
let backlog t = if t.backlog.v <= 0.0 then 0.0 else t.backlog.v

(* [backlog t > 0.0] without boxing the float across the module boundary:
   the dataplane asks this on every going-idle cycle. *)
let has_backlog t = t.backlog.v > 0.0

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
   balance stays above [floor]; returns the count submitted.  The head's
   cost is read in place off the tenant's ring. *)
let submit_while (tenant : _ Tenant.t) ~floor ~submit =
  let a = tenant.acct in
  let n = ref 0 in
  while a.demand > 0.0 && a.tokens > floor && tenant.len > 0 do
    let cost = tenant.costs.(tenant.head) in
    let payload = Tenant.dequeue tenant in
    a.tokens <- a.tokens -. cost;
    a.submitted_cost <- a.submitted_cost +. cost;
    submit payload;
    incr n
  done;
  !n

(* BE variant: a request is submitted only if the tenant can fully pay. *)
let submit_admissible (tenant : _ Tenant.t) ~submit =
  let a = tenant.acct in
  let n = ref 0 in
  while tenant.len > 0 && tenant.costs.(tenant.head) <= a.tokens do
    let cost = tenant.costs.(tenant.head) in
    let payload = Tenant.dequeue tenant in
    a.tokens <- a.tokens -. cost;
    a.submitted_cost <- a.submitted_cost +. cost;
    submit payload;
    incr n
  done;
  !n

let schedule t ~now ~submit =
  Profiler.enter t.profiler Profiler.Subsystem.Qos;
  (* [Time.to_float_sec (Time.diff now prev)], written out so the float
     is not boxed across the module boundary. *)
  let time_delta =
    if t.scheduled then Int64.to_float (Time.diff now t.prev_sched_time) /. 1e9 else 0.0
  in
  t.scheduled <- true;
  t.prev_sched_time <- now;
  (* Read once; telemetry-off rounds pay exactly these immutable-bool
     tests.  The flight recorder has its own bit: it stays armed even when
     full telemetry is off, and its record sites are plain array stores
     (see lib/obs/flight.ml), though each boxes its [~v]. *)
  let tel_on = Telemetry.enabled t.telemetry in
  let fl = t.flight in
  let fl_on = Flight.enabled fl in
  let bucket = t.bucket in
  let submitted = ref 0 in
  (* Latency-critical tenants first (Algorithm 1, lines 4-12). *)
  for i = 0 to t.lc_n - 1 do
    let tenant = t.lc.(i) in
    let a = tenant.acct in
    let grant = a.token_rate *. time_delta in
    a.tokens <- a.tokens +. grant;
    tenant.grants.(tenant.grant_pos) <- grant;
    tenant.grant_pos <- (tenant.grant_pos + 1) mod 3;
    a.granted_total <- a.granted_total +. grant;
    if fl_on then
      Flight.record fl ~now ~kind:Flight.Kind.Refill ~a:tenant.id ~b:t.thread_id ~v:grant;
    if a.tokens < t.neg_limit then begin
      t.notify_control_plane tenant.id;
      if fl_on then
        Flight.record fl ~now ~kind:Flight.Kind.Deficit ~a:tenant.id ~b:t.thread_id ~v:a.tokens
    end;
    let n_lc = submit_while tenant ~floor:t.neg_limit ~submit in
    submitted := !submitted + n_lc;
    if fl_on && n_lc > 0 then
      Flight.record fl ~now ~kind:Flight.Kind.Grant ~a:tenant.id ~b:n_lc ~v:a.tokens;
    (* Demand left after the submit loop means the balance hit the floor:
       the scheduler is actively throttling this LC tenant. *)
    if fl_on && a.demand > 0.0 then
      Flight.record fl ~now ~kind:Flight.Kind.Throttle ~a:tenant.id ~b:t.thread_id ~v:a.demand;
    (* POS_LIMIT: the grants of the last three rounds, summed in ring
       order. *)
    let g = tenant.grants in
    let pos_limit = g.(0) +. g.(1) +. g.(2) in
    if a.tokens > pos_limit then begin
      let donation = a.tokens *. t.donate_fraction in
      if donation > 0.0 then bucket.v <- bucket.v +. donation;
      a.tokens <- a.tokens -. donation;
      if fl_on then
        Flight.record fl ~now ~kind:Flight.Kind.Donate ~a:tenant.id ~b:t.thread_id ~v:donation
    end
  done;
  (* Best-effort tenants in round-robin order (lines 13-21). *)
  let n_be = t.be_n in
  for k = 0 to n_be - 1 do
    let tenant = t.be.((t.be_cursor + k) mod n_be) in
    let a = tenant.acct in
    let grant = a.token_rate *. time_delta in
    a.tokens <- a.tokens +. grant;
    if tel_on then a.granted_total <- a.granted_total +. grant;
    if fl_on then
      Flight.record fl ~now ~kind:Flight.Kind.Refill ~a:tenant.id ~b:t.thread_id ~v:grant;
    let deficit = a.demand -. a.tokens in
    if deficit > 0.0 then begin
      (* Take up to [deficit], bounded below by zero: [Float.min deficit
         level] for a positive [deficit], written out because the Stdlib
         call would box. *)
      let level = bucket.v in
      let taken = if level > deficit then deficit else level in
      bucket.v <- level -. taken;
      a.tokens <- a.tokens +. taken;
      if fl_on && taken > 0.0 then
        Flight.record fl ~now ~kind:Flight.Kind.Bucket_take ~a:tenant.id ~b:t.thread_id ~v:taken
    end;
    let n_sub = submit_admissible tenant ~submit in
    submitted := !submitted + n_sub;
    if fl_on && n_sub > 0 then
      Flight.record fl ~now ~kind:Flight.Kind.Grant ~a:tenant.id ~b:n_sub ~v:a.tokens;
    if fl_on && a.demand > 0.0 then
      Flight.record fl ~now ~kind:Flight.Kind.Throttle ~a:tenant.id ~b:t.thread_id ~v:a.demand;
    (* DRR-inspired: no token hoarding while idle. *)
    if a.tokens > 0.0 && a.demand = 0.0 then begin
      let drained = a.tokens in
      a.tokens <- 0.0;
      bucket.v <- bucket.v +. drained;
      if fl_on then
        Flight.record fl ~now ~kind:Flight.Kind.Idle_drain ~a:tenant.id ~b:t.thread_id
          ~v:drained
    end
  done;
  if n_be > 0 then t.be_cursor <- (t.be_cursor + 1) mod n_be;
  let reset = Global_bucket.mark_round t.global ~thread_id:t.thread_id in
  if fl_on && reset then
    Flight.record fl ~now ~kind:Flight.Kind.Bucket_reset ~a:(-1) ~b:t.thread_id ~v:bucket.v;
  Profiler.leave t.profiler Profiler.Subsystem.Qos;
  !submitted
