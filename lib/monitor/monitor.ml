open Reflex_engine
open Reflex_stats
open Reflex_core
open Reflex_telemetry
module Flight = Reflex_obs.Flight
module Flight_dump = Reflex_obs.Flight_dump
module Profiler = Reflex_obs.Profiler

(* The monitoring facade: one daemon tick drives the whole pipeline

     tenant sync -> Tsdb window close -> budget accounting
       -> alert rule evaluation -> (opt-in) remediation

   in a fixed order, so every derived quantity is a deterministic
   function of simulation state and the alert timeline of a same-seed
   run is byte-identical serial or under Runner --jobs.

   Tenants register *after* the monitor is armed (the scheduler pushes
   SLOs into Telemetry when a tenant is added), so per-tenant sources,
   budgets and rules are wired lazily at the first tick that sees a new
   id in Telemetry.tenants_with_slo (a sorted list — wiring order is
   deterministic too).

   Zero-overhead-when-disabled: a monitor over a disabled telemetry
   registers nothing, arms no daemon and never mutates the world.
   Remediation is opt-in via [bind]; without bindings the monitor is a
   pure observer. *)

(* One alert-triggered forensic dump: the flight-ring snapshot frozen at
   the tick where the alert fired, plus the cross-references needed to
   render it ([Flight_dump.debrief] / [to_chrome_json]). *)
type flight_dump = {
  d_rule : string;
  d_time : Time.t;
  d_detail : string;
  d_snapshot : Flight.snapshot;
  d_faults : Flight_dump.fault_window list;
}

type t = {
  enabled : bool;
  server : Server.t;
  telemetry : Telemetry.t;
  tsdb : Tsdb.t;
  alerts : Alerts.t;
  flight : Flight.t; (* cached off telemetry at create time *)
  profiler : Profiler.t;
  mutable dumps_rev : flight_dump list;
  budgets : (int, Budget.t) Hashtbl.t;
  tracked : (int, unit) Hashtbl.t;
  knee_rate : float;
  mutable bindings : (string * Remediate.action) list; (* name-sorted *)
  last_applied : (string, Time.t) Hashtbl.t;
  mutable remediation_log_rev : (Time.t * string * Remediate.action * string) list;
  mutable last_closed : int;
  mutable running : bool;
}

let fault_annotation telemetry ~lookback now =
  let recent_start = if Time.(now > lookback) then Time.sub now lookback else Time.zero in
  let labels =
    Telemetry.fault_windows telemetry
    |> List.filter_map (fun (label, start, stop) ->
           let still_relevant =
             match stop with None -> true | Some s -> Time.(s >= recent_start)
           in
           if Time.(start <= now) && still_relevant then Some label else None)
    |> List.sort_uniq compare
  in
  match labels with
  | [] -> None
  | l -> Some ("faults: " ^ String.concat "," l)

(* The one monitoring policy.  Sample every 1ms into a 4096-window
   ring.  Hold each tenant to a 0.99 SLO target, paging when the error
   budget burns >= 10x over 2 windows and >= 5x over 10 (>= 20% and
   >= 5% of requests over the bound: far above a healthy tail, far below
   a fault window).  Flag an anomaly at z >= 3.0 when at least a quarter
   of a window violates.  Apply a bound remediation at most once per
   50ms per rule.  Budgets accumulate over the whole run.  Put the load
   knee at 0.8 of device token capacity, and keep at most four forensic
   dumps of the last 5ms of flight records. *)
let interval = Time.ms 1
let capacity = 4096
let target = 0.99
let burn_short = (2, 10.0)
let burn_long = (10, 5.0)
let z_thresh = 3.0
let cooldown = Time.ms 50
let dump_window = Time.ms 5
let anomaly_floor = 0.25
let knee_frac = 0.8
let max_dumps = 4

let create ?fault_lookback ~server ~telemetry () =
  let enabled = Telemetry.enabled telemetry in
  let tsdb = if enabled then Tsdb.create ~capacity () else Tsdb.disabled in
  let lookback =
    match fault_lookback with
    | Some l -> l
    | None -> Time.scale interval (float_of_int (fst burn_long))
  in
  let alerts = Alerts.create ~annotate:(fault_annotation telemetry ~lookback) () in
  let knee_rate =
    Reflex_flash.Device_profile.knee_token_rate ~frac:knee_frac
      (Reflex_flash.Nvme_model.profile (Server.device server))
  in
  let t =
    {
      enabled;
      server;
      telemetry;
      tsdb;
      alerts;
      flight = Telemetry.flight telemetry;
      profiler = Telemetry.profiler telemetry;
      dumps_rev = [];
      budgets = Hashtbl.create 8;
      tracked = Hashtbl.create 8;
      knee_rate;
      bindings = [];
      last_applied = Hashtbl.create 8;
      remediation_log_rev = [];
      last_closed = 0;
      running = false;
    }
  in
  t

let alerts t = t.alerts

(* Wire sources, budget and the three default rules for one newly seen
   latency-critical tenant. *)
let track_tenant t id ~slo_us =
  let pfx = Printf.sprintf "t%d" id in
  let latency = pfx ^ "/latency" in
  let slo_ns = Int64.of_int (slo_us * 1000) in
  Tsdb.register_hist t.tsdb latency (Telemetry.tenant_latency_hist t.telemetry ~tenant:id);
  Tsdb.register_derived t.tsdb (pfx ^ "/bad") (fun w ->
      match Tsdb.hist w latency with
      | Some h -> float_of_int (Hdr_histogram.count_above h slo_ns)
      | None -> 0.0);
  Tsdb.register_derived t.tsdb (pfx ^ "/good") (fun w ->
      match Tsdb.hist w latency with
      | Some h ->
        float_of_int (Hdr_histogram.count h - Hdr_histogram.count_above h slo_ns)
      | None -> 0.0);
  Tsdb.register_cumulative t.tsdb (pfx ^ "/tokens") (fun () ->
      Server.tenant_tokens_submitted t.server ~tenant:id);
  (* EWMA over the windowed SLO-violating fraction, scored before
     fold-in.  The bad fraction is far less noisy than a per-window p95
     (which is within a couple of samples of the max at these window
     populations), and the sigma floor of 10 percentage points means a
     z >= 3 needs the fraction to jump >= 30pp above baseline — healthy
     tail blips from BE interference never get there. *)
  let bad_fraction h =
    let total = Hdr_histogram.count h in
    if total = 0 then 0.0
    else float_of_int (Hdr_histogram.count_above h slo_ns) /. float_of_int total
  in
  let ewma = Detect.Ewma.create ~sigma_floor:0.1 () in
  Tsdb.register_derived t.tsdb (pfx ^ "/badfrac_z") (fun w ->
      match Tsdb.hist w latency with
      | Some h when Hdr_histogram.count h > 0 -> Detect.Ewma.observe ewma (bad_fraction h)
      | _ -> 0.0);
  Hashtbl.replace t.budgets id (Budget.create ~tenant:id ~target);
  (* Rule 1: SRE multi-window burn rate on the SLO error budget. *)
  Alerts.add t.alerts
    (Alerts.burn_rule ~severity:Alerts.Page ~name:(pfx ^ "/burn") ~target
       ~good:(pfx ^ "/good") ~bad:(pfx ^ "/bad") ~short:burn_short ~long:burn_long ());
  (* Rule 2: load-knee crossing — past the device's hockey-stick knee
     while violating the SLO bound. *)
  Alerts.add t.alerts
    (Alerts.rule ~severity:Alerts.Ticket ~name:(pfx ^ "/knee") (fun _ w ->
         let span_s = Tsdb.span_us w /. 1e6 in
         let tokens = Option.value ~default:0.0 (Tsdb.value w (pfx ^ "/tokens")) in
         if span_s <= 0.0 then None
         else
           let rate = tokens /. span_s in
           match Tsdb.hist w latency with
           | Some h when Hdr_histogram.count h > 0 ->
             let p95 = Hdr_histogram.percentile_us h 95.0 in
             if
               Detect.knee_crossed ~rate ~knee_rate:t.knee_rate ~p95_us:p95
                 ~knee_latency_us:(float_of_int slo_us)
             then
               Some
                 (Printf.sprintf "%.0f tok/s >= knee %.0f with p95 %.0fus > slo %dus"
                    rate t.knee_rate p95 slo_us)
             else None
           | _ -> None));
  (* Rule 3: EWMA z-score anomaly on the violating fraction, gated on
     an absolute floor so clean runs stay silent no matter how wiggly
     the baseline is. *)
  Alerts.add t.alerts
    (Alerts.rule ~severity:Alerts.Info ~name:(pfx ^ "/anomaly") (fun _ w ->
         let z = Option.value ~default:0.0 (Tsdb.value w (pfx ^ "/badfrac_z")) in
         match Tsdb.hist w latency with
         | Some h when Hdr_histogram.count h > 0 ->
           let frac = bad_fraction h in
           if z >= z_thresh && frac >= anomaly_floor then
             Some
               (Printf.sprintf "%.0f%% of window over %dus SLO, z=%.1f vs baseline %.0f%%"
                  (100.0 *. frac) slo_us z (100.0 *. Detect.Ewma.mean ewma))
           else None
         | _ -> None))

(* Tenants register after the monitor is armed; pick up new ids each
   tick.  Only latency-critical tenants carry budgets and rules. *)
let sync_tenants t =
  List.iter
    (fun id ->
      if not (Hashtbl.mem t.tracked id) then begin
        Hashtbl.replace t.tracked id ();
        match Telemetry.tenant_slo t.telemetry ~tenant:id with
        | Some (true, slo_us) -> track_tenant t id ~slo_us
        | _ -> ()
      end)
    (Telemetry.tenants_with_slo t.telemetry)

let update_budgets t w =
  (* reflex-lint: allow det/hashtbl-order — per-tenant Budget.record calls touch disjoint budgets keyed by tenant id; order-insensitive *)
  Hashtbl.iter
    (fun id budget ->
      let pfx = Printf.sprintf "t%d" id in
      let value name = Option.value ~default:0.0 (Tsdb.value w name) in
      let good = value (pfx ^ "/good") and bad = value (pfx ^ "/bad") in
      if good > 0.0 || bad > 0.0 then Budget.record budget ~good ~bad)
    t.budgets

let cooldown_ok t rule now =
  match Hashtbl.find_opt t.last_applied rule with
  | None -> true
  | Some last -> Time.(Time.diff now last >= cooldown)

let severity_int = function Alerts.Info -> 0 | Alerts.Ticket -> 1 | Alerts.Page -> 2

(* Mirror one alert edge into the flight ring (interned rule name in [a],
   severity in [b]) so the triggering edge itself appears in the dump. *)
let flight_alert_edge t (e : Alerts.event) =
  if Flight.enabled t.flight then
    let kind =
      match e.e_kind with
      | Alerts.Fired -> Flight.Kind.Alert_fire
      | Alerts.Resolved -> Flight.Kind.Alert_resolve
    in
    Flight.record t.flight ~now:e.e_time ~kind ~a:(Flight.intern t.flight e.e_rule)
      ~b:(severity_int e.e_severity) ~v:0.0

(* Triggered dump: freeze the last [dump_window] of the flight ring at
   the first fired edge of this tick (records for the edge are written
   first, so the trigger is inside its own snapshot), capped at
   [max_dumps] per run so a flapping rule cannot hoard memory. *)
let maybe_dump t (e : Alerts.event) =
  if
    e.e_kind = Alerts.Fired
    && Flight.enabled t.flight
    && List.length t.dumps_rev < max_dumps
  then
    t.dumps_rev <-
      {
        d_rule = e.e_rule;
        d_time = e.e_time;
        d_detail = e.e_detail;
        d_snapshot = Flight.snapshot t.flight ~now:e.e_time ~window:dump_window;
        d_faults = Telemetry.fault_windows t.telemetry;
      }
      :: t.dumps_rev

let tick t ~now =
  if t.enabled then begin
    Profiler.enter t.profiler Profiler.Subsystem.Monitor;
    sync_tenants t;
    Tsdb.tick t.tsdb ~now;
    let closed = Tsdb.windows_closed t.tsdb in
    if closed > t.last_closed then begin
      t.last_closed <- closed;
      (match Tsdb.last t.tsdb with Some w -> update_budgets t w | None -> ());
      let events = Alerts.step t.alerts t.tsdb ~now in
      List.iter (flight_alert_edge t) events;
      List.iter (maybe_dump t) events;
      List.iter
        (fun (e : Alerts.event) ->
          if e.e_kind = Alerts.Fired then
            match List.assoc_opt e.e_rule t.bindings with
            | Some action when cooldown_ok t e.e_rule now ->
              let outcome = Remediate.apply t.server action in
              Hashtbl.replace t.last_applied e.e_rule now;
              t.remediation_log_rev <- (now, e.e_rule, action, outcome)
                                       :: t.remediation_log_rev;
              Telemetry.remediation_mark t.telemetry ~now ~rule:e.e_rule ~outcome
            | _ -> ())
        events
    end;
    Profiler.leave t.profiler Profiler.Subsystem.Monitor
  end

let start t sim () =
  if t.enabled && not t.running then begin
    t.running <- true;
    Sim.every_daemon sim ~every:interval (fun now -> tick t ~now)
  end

let bind t ~rule action =
  if t.enabled then
    t.bindings <-
      List.sort (fun (a, _) (b, _) -> compare a b) ((rule, action) :: t.bindings)

let remediation_log t = List.rev t.remediation_log_rev
let flight_dumps t = List.rev t.dumps_rev

let dump_trigger d : Flight_dump.trigger = (d.d_rule, d.d_time, d.d_detail)
let dump_debrief d = Flight_dump.debrief ~alert:(dump_trigger d) ~faults:d.d_faults d.d_snapshot

let dump_chrome_json d =
  Flight_dump.to_chrome_json ~alert:(dump_trigger d) ~faults:d.d_faults d.d_snapshot
let events t = Alerts.events t.alerts
let fired_total t = Alerts.fired_total t.alerts
let firing t = Alerts.firing t.alerts

let budgets t =
  Hashtbl.fold (fun id b acc -> (id, b) :: acc) t.budgets []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

(* {1 Exports} *)

(* Alert timeline as Chrome-trace instant events, ready for
   Trace_export.to_chrome_json ~extra. *)
let chrome_instants t =
  let module Te = Reflex_obs.Trace_event in
  List.map
    (fun (e : Alerts.event) ->
      Te.to_string (fun q ->
          Te.event q ~name:("alert:" ^ e.e_rule) ~cat:"alert" ~ph:"i" ~s:"g" ~ts:e.e_time ~pid:0
            ~tid:0
            ~args:
              [
                ("kind", Te.Str (Alerts.kind_label e.e_kind));
                ("severity", Te.Str (Alerts.severity_label e.e_severity));
                ("detail", Te.Str e.e_detail);
              ]
            ()))
    (events t)

let prometheus t =
  if not t.enabled then ""
  else begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Prom_export.render t.telemetry);
    List.iter
      (fun (id, b) ->
        let labels = [ ("tenant", string_of_int id) ] in
        Buffer.add_string buf
          (Prom_export.line ~name:"reflex_slo_budget_consumed" ~labels (Budget.consumed b));
        Buffer.add_string buf
          (Prom_export.line ~name:"reflex_slo_budget_burn_rate" ~labels (Budget.burn_rate b)))
      (budgets t);
    List.iter
      (fun name ->
        Buffer.add_string buf
          (Prom_export.line ~name:"reflex_alert_firing" ~labels:[ ("rule", name) ] 1.0))
      (firing t);
    Buffer.add_string buf
      (Prom_export.line ~name:"reflex_alerts_fired_total" (float_of_int (fired_total t)));
    Buffer.contents buf
  end

(* {1 Report} *)

let report t =
  if not t.enabled then "== monitor disabled ==\n"
  else begin
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      (Printf.sprintf
         "== monitor (%.1fms interval, %d windows, %d tenants, knee %.0f tok/s) ==\n"
         (Time.to_float_ms interval)
         (Tsdb.windows_closed t.tsdb)
         (Hashtbl.length t.budgets) t.knee_rate);
    List.iter
      (fun (_, b) -> Buffer.add_string buf (Fmt.str "  %a\n" Budget.pp b))
      (budgets t);
    Buffer.add_string buf (Alerts.report t.alerts);
    (match remediation_log t with
    | [] -> ()
    | log ->
      Buffer.add_string buf "== remediations ==\n";
      List.iter
        (fun (time, rule, action, outcome) ->
          Buffer.add_string buf
            (Printf.sprintf "%10.3fms %-28s %s -> %s\n" (Time.to_float_ms time) rule
               (Remediate.label action) outcome))
        log);
    (match flight_dumps t with
    | [] -> ()
    | dumps ->
      Buffer.add_string buf "== flight dumps ==\n";
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf "%10.3fms %-28s %d records in last %.3fms\n"
               (Time.to_float_ms d.d_time) d.d_rule
               (Flight.snap_length d.d_snapshot)
               (Time.to_float_ms d.d_snapshot.Flight.snap_window)))
        dumps);
    Buffer.contents buf
  end
