open Reflex_engine
open Reflex_client
open Reflex_telemetry
open Reflex_faults
open Reflex_monitor
module Flight = Reflex_obs.Flight
module Profiler = Reflex_obs.Profiler

(* Observability acceptance scenario: the chaos world (two dataplane
   threads, two LC tenants with retries, two BE write floods, scripted
   fault plan) with the full lib/obs stack armed —

   - the always-on flight recorder, attached before the world is built
     so the scheduler round and dataplane cycle record into it;
   - the monitor, whose fired alerts freeze forensic flight dumps;
   - the continuous cost profiler, with the whole [Sim.run] loop scoped
     under the Engine bucket.

   The deterministic render covers the fault plan, the monitor report
   (including the dump summary), the retry span trees reconstructed
   from the client's Follows_from links, and the digest of the first
   dump's JSON debrief.  The profiler's minor-word counts repeat for a
   seed but move with the build profile and the compiler, so they are
   kept out of the render — [profile_report] exposes them separately for
   the CLI. *)

type result = {
  monitor : Monitor.t;
  telemetry : Telemetry.t;
  profiler : Profiler.t;
  plan : Fault_plan.t;
  retries : int;  (** summed client re-issues *)
  digest : string;  (** server counters + per-generator stats *)
}

(* [flight] (default true) attaches a live recorder; [false] leaves the
   shared disabled instance. *)
let run ?(mode = Common.Quick) ?(seed = 42L) ?(flight = true) ?(profile = false) () =
  let scale = Chaos.scale_of mode in
  let telemetry = Telemetry.create ~span_capacity:(1 lsl 19) () in
  if flight then Telemetry.set_flight telemetry (Flight.create ());
  let profiler = if profile then Profiler.create () else Profiler.disabled in
  if profile then Telemetry.set_profiler telemetry profiler;
  let w = Common.make_reflex ~n_threads:2 ~telemetry ~seed () in
  let sim = w.Common.sim in
  let monitor =
    Monitor.create ~fault_lookback:(Time.scale (Time.sec 1) scale) ~server:w.Common.server
      ~telemetry ()
  in
  Monitor.start monitor sim ();
  let lc, be = Chaos.load ~retry:Chaos.retry w ~seed ~scale in
  let plan, _ = Chaos.arm_faults w ~seed ~scale (lc @ be) in
  Profiler.enter profiler Profiler.Subsystem.Engine;
  ignore (Sim.run ~until:(Chaos.timeline scale) sim);
  ignore (Sim.run sim);
  Profiler.leave profiler Profiler.Subsystem.Engine;
  {
    monitor;
    telemetry;
    profiler;
    plan;
    retries =
      List.fold_left (fun acc (l : Common.load) -> acc + Client_lib.retries l.client) 0 lc;
    digest = Common.digest w (lc @ be);
  }

(* {1 Views over one run} *)

let dumps r = Monitor.flight_dumps r.monitor

let first_debrief r =
  match dumps r with [] -> None | d :: _ -> Some (Monitor.dump_debrief d)

let first_chrome r =
  match dumps r with [] -> None | d :: _ -> Some (Monitor.dump_chrome_json d)

(* {1 Acceptance checks} *)

let dump_captured r =
  match dumps r with
  | [] -> false
  | d :: _ -> Flight.snap_length d.Monitor.d_snapshot > 0

(* The debrief must name its trigger alert and carry the fault windows
   active around it. *)
let dump_names_alert r =
  match dumps r with
  | [] -> false
  | d :: _ ->
    let j = Monitor.dump_debrief d in
    d.Monitor.d_rule <> "" && Common.contains_sub j d.Monitor.d_rule
    && Common.contains_sub j "\"trigger\":{"

let dump_names_fault r =
  match first_debrief r with
  | None -> false
  | Some j ->
    List.exists
      (fun (w : Fault_plan.window) -> Common.contains_sub j (Fault_plan.label w.fault))
      r.plan

let links_recorded r = r.retries = 0 || Telemetry.links r.telemetry <> []

let checks r =
  [
    Identity.check "alert-triggered flight dump captured" (dump_captured r);
    Identity.check "dump names its trigger alert" (dump_names_alert r);
    Identity.check "dump carries the active fault window" (dump_names_fault r);
    Identity.check "retry attempts linked into span trees" (links_recorded r);
  ]

(* {1 Render} *)

let render_result r =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Fault_plan.to_string r.plan);
  Buffer.add_string buf (Monitor.report r.monitor);
  Buffer.add_string buf (Trace_export.retry_tree_report r.telemetry);
  Buffer.add_string buf (Printf.sprintf "client retries: %d\n" r.retries);
  (match first_debrief r with
  | None -> Buffer.add_string buf "flight dump: NONE\n"
  | Some j ->
    Buffer.add_string buf
      (Printf.sprintf "flight dump: %d bytes, md5 %s\n" (String.length j)
         (Digest.to_hex (Digest.string j))));
  let checks = checks r in
  Buffer.add_string buf "acceptance:\n";
  Buffer.add_string buf (Identity.lines checks);
  Buffer.add_string buf (if Identity.all_ok checks then "OBS OK\n" else "OBS FAILED\n");
  Buffer.contents buf

(* {1 Profiler view (host minor words — never part of the render)} *)

let profile_report r = Profiler.report r.profiler
