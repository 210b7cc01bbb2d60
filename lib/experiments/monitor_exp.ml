open Reflex_engine
open Reflex_client
open Reflex_telemetry
open Reflex_faults
open Reflex_monitor

(* The monitoring acceptance scenario.

   Four legs over the chaos world (two dataplane threads, two LC
   tenants, two BE write floods; scripted fault plan: die fail, GC
   storm, link flap):

   1. FAULTED: monitor armed over the scripted plan.  Every fired alert
      must land inside a (settle-padded) fault window and its detail
      must name the overlapping fault(s).
   2. CLEAN: same world, no injector.  The monitor must stay perfectly
      silent — zero events.
   3. IDENTITY: the world digest (server counters + per-generator
      stats) of a run with a *disabled* monitor must be byte-identical
      to a run with no monitor at all; an *enabled* observer-only
      monitor must also leave the digest unchanged (daemon ticks never
      perturb simulation state).
   4. REMEDIATE: the faulted run again with the die-fail burn alert
      bound to capacity re-pricing, demonstrating the opt-in feedback
      loop (the remediation log must be non-empty and deterministic).

   The debrief adds the Identity rerun and two-domain checks over the
   rendered output — the alert timeline is part of that output, so this
   is the "bit-reproducible alerts" acceptance check. *)

let scale_of = function Common.Quick -> 0.1 | Common.Full -> 1.0

type leg = {
  digest : string;  (** world digest: server counters + per-gen stats *)
  monitor : Monitor.t;
  telemetry : Telemetry.t;
  plan : Fault_plan.t;  (** [[]] when no faults injected *)
  injected : int;
  recovered : int;
}

type result = {
  faulted : leg;
  clean : leg;
  remediated : leg;
  digest_none : string;  (** no monitor at all *)
  digest_disabled : string;  (** ~enabled:false monitor *)
  fired : Alerts.event list;  (** faulted leg, Fired transitions only *)
  in_window : int;  (** fired events inside a padded fault window *)
  named : int;  (** fired events whose detail names a fault *)
  pad : Time.t;
  interval : Time.t;
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let interval = Time.ms 1

(* Settle padding after a fault window closes: the long burn window
   still sees in-fault traffic for 10 intervals, and the queued backlog
   takes up to one chaos bucket to drain.  Alerts fired inside the
   padded window count as in-window; the monitor names faults over the
   same lookback so those alerts still carry their cause. *)
let settle_pad scale = Time.add (Time.scale interval 10.0) (Time.scale (Time.sec 1) scale)

(* Burn thresholds for the scenario: target 0.99 with 2w@10x /\ 10w@5x
   means >= 20% of a 2-window span and >= 5% of a 10-window span must
   violate the SLO bound before the page fires -- far above the healthy
   tail (clean buckets hold p95 <= SLO, i.e. < 5% violations) and far
   below a fault window (p95 several times the bound). *)
let monitor_of ?(enabled = true) ~scale w =
  Monitor.create ~enabled ~interval ~capacity:4096 ~target:0.99 ~burn_short:(2, 10.0)
    ~burn_long:(10, 5.0) ~z_thresh:3.0 ~cooldown:(Time.ms 50)
    ~fault_lookback:(settle_pad scale) ~server:w.Common.server
    ~telemetry:w.Common.telemetry ()

(* One world, chaos-style load, optional faults, optional monitor. *)
let run_leg ~mode ~seed ~faults ~monitor:monitor_kind () =
  let scale = scale_of mode in
  let telemetry = Telemetry.create () in
  (* Always-on flight recorder: armed before the world is built (the
     scheduler and dataplane cache the handle), so alert edges trigger
     forensic dumps.  Records never feed simulation state, so every
     digest/identity check below is unaffected. *)
  Telemetry.set_flight telemetry (Reflex_obs.Flight.create ());
  let w = Common.make_reflex ~n_threads:2 ~telemetry ~seed () in
  let sim = w.Common.sim in
  let timeline = Time.scale (Time.sec 10) scale in
  let monitor =
    match monitor_kind with
    | `None -> Monitor.create ~enabled:false ~server:w.Common.server ~telemetry ()
    | `Disabled ->
      let m = Monitor.create ~enabled:false ~server:w.Common.server ~telemetry () in
      Monitor.start m sim ();
      m
    | `Enabled | `Remediate ->
      let m = monitor_of ~scale w in
      Monitor.start m sim ();
      if monitor_kind = `Remediate then begin
        (* Page-severity burn on tenant 1 -> re-derive capacity from
           device health; knee on tenant 2 -> log only. *)
        Monitor.bind m ~rule:"t1/burn" Remediate.Reprice_for_device;
        Monitor.bind m ~rule:"t2/burn" (Remediate.Log "acknowledged")
      end;
      m
  in
  let lc_specs =
    [ (1, 500, 150_000, 100, 20_000.0, 1.0); (2, 1000, 75_000, 90, 10_000.0, 0.9) ]
  in
  let lc =
    List.map
      (fun (tenant, latency_us, iops, read_pct, rate, read_ratio) ->
        let client =
          Common.client_of w ~slo:(Common.lc_slo ~latency_us ~iops ~read_pct) ~tenant ()
        in
        let g =
          Load_gen.open_loop sim ~client ~pacing:`Cbr ~mix:`Deterministic ~rate ~read_ratio
            ~bytes:4096 ~until:timeline
            ~seed:(Int64.add seed (Int64.of_int (17 + tenant)))
            ()
        in
        (tenant, client, g))
      lc_specs
  in
  let be =
    List.init 2 (fun i ->
        let tenant = 101 + i in
        let client = Common.client_of w ~slo:(Common.be_slo ~read_pct:10 ()) ~tenant () in
        let g =
          Load_gen.closed_loop sim ~client ~depth:32 ~read_ratio:0.1 ~bytes:4096
            ~until:timeline
            ~seed:(Int64.add seed (Int64.of_int (91 + i)))
            ()
        in
        (tenant, client, g))
  in
  let gens = List.map (fun (_, _, g) -> g) (lc @ be) in
  let plan, inj =
    if not faults then ([], None)
    else begin
      let plan = Fault_plan.scripted ~scale () in
      let tgt =
        Injector.target ~sim ~fabric:w.Common.fabric ~server:w.Common.server
          ~gens:(Array.of_list gens) ~telemetry ()
      in
      (plan, Some (Injector.arm ~seed:(Int64.add seed 7L) tgt ~plan))
    end
  in
  ignore (Sim.run ~until:timeline sim);
  ignore (Sim.run sim);
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "completed=%d tokens=%.3f threads=%d\n"
       (Reflex_core.Server.requests_completed w.Common.server)
       (Reflex_core.Server.tokens_spent w.Common.server)
       (Reflex_core.Server.active_threads w.Common.server));
  List.iter
    (fun (tenant, _, g) ->
      Buffer.add_string buf
        (Printf.sprintf "t%d issued=%d iops=%.1f p95r=%.2f\n" tenant (Load_gen.issued g)
           (Load_gen.achieved_iops g) (Load_gen.p95_read_us g)))
    (lc @ be);
  {
    digest = Buffer.contents buf;
    monitor;
    telemetry;
    plan;
    injected = (match inj with Some i -> Injector.injected i | None -> 0);
    recovered = (match inj with Some i -> Injector.recovered i | None -> 0);
  }

(* One clean (fault-free) leg only — the zero-alerts property test
   drives this across seeds without paying for the full scenario. *)
let run_clean ?(mode = Common.Quick) ?(seed = 42L) () =
  run_leg ~mode ~seed ~faults:false ~monitor:`Enabled ()

let run ?(mode = Common.Quick) ?(seed = 42L) () =
  let scale = scale_of mode in
  let faulted = run_leg ~mode ~seed ~faults:true ~monitor:`Enabled () in
  let clean = run_leg ~mode ~seed ~faults:false ~monitor:`Enabled () in
  let remediated = run_leg ~mode ~seed ~faults:true ~monitor:`Remediate () in
  let none = run_leg ~mode ~seed ~faults:true ~monitor:`None () in
  let disabled = run_leg ~mode ~seed ~faults:true ~monitor:`Disabled () in
  let interval = Monitor.interval faulted.monitor in
  let pad = settle_pad scale in
  let fired =
    List.filter (fun (e : Alerts.event) -> e.e_kind = Alerts.Fired)
      (Monitor.events faulted.monitor)
  in
  let in_fault_window time =
    List.exists
      (fun (wd : Fault_plan.window) ->
        Time.(wd.at <= time) && Time.(time <= Time.add (Time.add wd.at wd.duration) pad))
      faulted.plan
  in
  {
    faulted;
    clean;
    remediated;
    digest_none = none.digest;
    digest_disabled = disabled.digest;
    fired;
    in_window =
      List.length (List.filter (fun (e : Alerts.event) -> in_fault_window e.e_time) fired);
    named =
      List.length
        (List.filter (fun (e : Alerts.event) -> contains_sub e.e_detail "faults: ") fired);
    pad;
    interval;
  }

(* {1 Acceptance checks} *)

let alerts_fired r = List.length r.fired > 0
let alerts_in_windows r = r.in_window = List.length r.fired
let alerts_named r = r.named = List.length r.fired
let clean_silent r = Monitor.events r.clean.monitor = []
let disabled_identical r = String.equal r.digest_none r.digest_disabled

(* An observer-only monitor must not perturb the world either. *)
let observer_identical r = String.equal r.digest_none r.faulted.digest
let remediation_applied r = Monitor.remediation_log r.remediated.monitor <> []

let checks r =
  [
    Identity.check "alerts fired under faults" (alerts_fired r);
    Identity.check
      (Printf.sprintf "all fired alerts inside fault windows (+%.0fms)" (Time.to_float_ms r.pad))
      (alerts_in_windows r);
    Identity.check "every fired alert names the overlapping fault" (alerts_named r);
    Identity.check "clean control run: zero alert events" (clean_silent r);
    Identity.check "disabled monitor run == no-monitor run" (disabled_identical r);
    Identity.check "enabled observer run == no-monitor run" (observer_identical r);
    Identity.check "remediation bindings applied" (remediation_applied r);
  ]

let render_result r =
  let buf = Buffer.create 8192 in
  let checks = checks r in
  Buffer.add_string buf (Fault_plan.to_string r.faulted.plan);
  Buffer.add_string buf (Monitor.report r.faulted.monitor);
  Buffer.add_string buf "acceptance:\n";
  Buffer.add_string buf
    (Printf.sprintf "  fault windows injected/recovered: %d/%d; alerts fired: %d\n"
       r.faulted.injected r.faulted.recovered (List.length r.fired));
  Buffer.add_string buf (Identity.lines checks);
  Buffer.add_string buf "remediation leg:\n";
  List.iter
    (fun (time, rule, action, outcome) ->
      Buffer.add_string buf
        (Printf.sprintf "  %10.3fms %-24s %s -> %s\n" (Time.to_float_ms time) rule
           (Remediate.label action) outcome))
    (Monitor.remediation_log r.remediated.monitor);
  Buffer.add_string buf (if Identity.all_ok checks then "MONITOR OK\n" else "MONITOR FAILED\n");
  Buffer.contents buf

let render ?mode ?seed () = render_result (run ?mode ?seed ())

(* Prometheus page + Chrome-trace fragments for the faulted leg (used
   by the CLI's --prom-out/--trace-out). *)
let exports r =
  ( Monitor.prometheus r.faulted.monitor,
    Monitor.chrome_instants r.faulted.monitor,
    r.faulted.monitor )

let debrief ?(mode = Common.Quick) ?(seed = 42L) () =
  let r = run ~mode ~seed () in
  let text = render_result r in
  Identity.debrief ~text ~acceptance:(checks r)
    (Identity.verify ~base:text (fun () -> render ~mode ~seed ()))
