open Reflex_engine
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
      stats) of the faulted, observer-only monitored run must be
      byte-identical to a run that never builds a monitor (daemon ticks
      never perturb simulation state).
   4. REMEDIATE: the faulted run again with the die-fail burn alert
      bound to capacity re-pricing, demonstrating the opt-in feedback
      loop (the remediation log must be non-empty and deterministic). *)

type 'm leg = {
  digest : string;  (** world digest: server counters + per-gen stats *)
  monitor : 'm;
  telemetry : Telemetry.t;
  plan : Fault_plan.t;  (** [[]] when no faults injected *)
  injected : int;
  recovered : int;
}

type result = {
  faulted : Monitor.t leg;
  clean : Monitor.t leg;
  remediated : Monitor.t leg;
  digest_none : string;  (** no monitor at all *)
  fired : Alerts.event list;  (** faulted leg, Fired transitions only *)
  in_window : int;  (** fired events inside a padded fault window *)
  named : int;  (** fired events whose detail names a fault *)
  pad : Time.t;
}

(* Settle padding after a fault window closes: the long burn window
   still sees in-fault traffic for 10 intervals, and the queued backlog
   takes up to one chaos bucket to drain.  Alerts fired inside the
   padded window count as in-window; the monitor names faults over the
   same lookback so those alerts still carry their cause. *)
let settle_pad scale =
  Time.add (Time.scale Monitor.interval 10.0) (Time.scale (Time.sec 1) scale)

(* One chaos world, optional faults, run to the end.  [arm] runs on the
   fresh world before the first registration — where a monitor is
   created and started — and its result is the leg's [monitor]. *)
let run_world ~mode ~seed ~faults arm =
  let scale = Chaos.scale_of mode in
  let telemetry = Telemetry.create () in
  (* Always-on flight recorder: armed before the world is built (the
     scheduler and dataplane cache the handle), so alert edges trigger
     forensic dumps.  Records never feed simulation state, so every
     digest/identity check below is unaffected. *)
  Telemetry.set_flight telemetry (Reflex_obs.Flight.create ());
  let w = Common.make_reflex ~n_threads:2 ~telemetry ~seed () in
  let monitor = arm w in
  let lc, be = Chaos.load w ~seed ~scale in
  let plan, inj =
    if faults then
      let plan, inj = Chaos.arm_faults w ~seed ~scale (lc @ be) in
      (plan, Some inj)
    else ([], None)
  in
  ignore (Sim.run ~until:(Chaos.timeline scale) w.Common.sim);
  ignore (Sim.run w.Common.sim);
  let count f = match inj with Some i -> f i | None -> 0 in
  {
    digest = Common.digest w (lc @ be);
    monitor;
    telemetry;
    plan;
    injected = count Injector.injected;
    recovered = count Injector.recovered;
  }

(* A monitored leg; [remediate] binds the opt-in feedback actions. *)
let run_leg ~mode ~seed ~faults ~remediate =
  run_world ~mode ~seed ~faults (fun w ->
      let m =
        Monitor.create
          ~fault_lookback:(settle_pad (Chaos.scale_of mode))
          ~server:w.Common.server ~telemetry:w.Common.telemetry ()
      in
      Monitor.start m w.Common.sim ();
      if remediate then begin
        (* Page-severity burn on tenant 1 -> re-derive capacity from
           device health; knee on tenant 2 -> log only. *)
        Monitor.bind m ~rule:"t1/burn" Remediate.Reprice_for_device;
        Monitor.bind m ~rule:"t2/burn" (Remediate.Log "acknowledged")
      end;
      m)

(* One clean (fault-free) leg only — the zero-alerts property test
   drives this across seeds without paying for the full scenario. *)
let run_clean ?(mode = Common.Quick) ?(seed = 42L) () =
  run_leg ~mode ~seed ~faults:false ~remediate:false

let run ?(mode = Common.Quick) ?(seed = 42L) () =
  let faulted = run_leg ~mode ~seed ~faults:true ~remediate:false in
  let clean = run_leg ~mode ~seed ~faults:false ~remediate:false in
  let remediated = run_leg ~mode ~seed ~faults:true ~remediate:true in
  let none = run_world ~mode ~seed ~faults:true ignore in
  let pad = settle_pad (Chaos.scale_of mode) in
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
    fired;
    in_window =
      List.length (List.filter (fun (e : Alerts.event) -> in_fault_window e.e_time) fired);
    named =
      List.length
        (List.filter (fun (e : Alerts.event) -> Common.contains_sub e.e_detail "faults: ") fired);
    pad;
  }

(* {1 Acceptance checks} *)

let alerts_fired r = List.length r.fired > 0
let alerts_in_windows r = r.in_window = List.length r.fired
let alerts_named r = r.named = List.length r.fired
let clean_silent r = Monitor.events r.clean.monitor = []

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
