(* Tests for the rack-scale distributed tracer: hop-delta tiling over
   random small worlds (qcheck), unchanged dispatch and completion counts
   when armed, slot-table overflow, lane-keyed spans in a rack sharing
   one telemetry, per-kind flight wraparound accounting, the
   probe-age/dispatch gauges, Follows_from stitching, the rollup's JSON,
   and byte identity of the stitched span trees and merged rollup across
   same-seed reruns. *)

open Reflex_engine
open Reflex_rack
module Common = Reflex_experiments.Common
module Rack_obs = Reflex_rack_obs.Rack_obs
module Rack_rollup = Reflex_rack_obs.Rack_rollup
module Flight = Reflex_obs.Flight
module Telemetry = Reflex_telemetry.Telemetry
module Trace_export = Reflex_telemetry.Trace_export
module Stage = Reflex_obs.Stage

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* World building                                                     *)
(* ------------------------------------------------------------------ *)

(* A small rack world: [n] servers, [tenants] open-loop CBR streams at
   one read per 100us each, a forced rebalance of tenant 1 at t0+1ms,
   4ms of load and a 2ms drain so every dispatched request completes.
   The tracer is armed when [armed]. *)
let rack_world ?(congested = false) ~armed ~seed ~n ~tenants () =
  let sim = Sim.create ~seed () in
  let link =
    if congested then
      Link.create ~switch:(Time.us 150) ~port_base:(Time.us 120)
        ~port_spread:(Time.us 150) ~n ()
    else Link.create ~n ()
  in
  let rack =
    Rack.create sim ~n_servers:n ~policy:Policy.Po2c ~link
      ~seed:(Int64.add seed 3L) ()
  in
  let obs = if armed then Some (Rack_obs.create ~exemplars:2 rack) else None in
  let placed = ref [] in
  for id = 1 to tenants do
    match
      Rack.add_tenant rack ~id
        ~slo:(Common.lc_slo ~latency_us:300 ~iops:500 ~read_pct:100)
        ~replicas:(min 2 n)
    with
    | `Placed _ -> placed := id :: !placed
    | `Rejected -> ()
  done;
  let placed = List.rev !placed in
  let t0 = Sim.now sim in
  let t_end = Time.add t0 (Time.ms 4) in
  Sim.every sim ~every:(Time.us 250) ~until:t_end (fun _ -> Rack.sample_probes rack);
  List.iter
    (fun id ->
      let prng = Prng.create (Int64.of_int ((id * 7919) + 13)) in
      Sim.every sim ~every:(Time.us 100) ~until:t_end (fun _ ->
          Rack.dispatch_read rack ~tenant:id
            ~lba:(Int64.of_int (Prng.int prng 4096 * 8))
            ~len:1024 ()))
    placed;
  (match placed with
  | a :: _ ->
    ignore
      (Sim.at sim (Time.add t0 (Time.ms 1)) (fun () ->
           ignore (Rack.rebalance rack ~tenant:a)))
  | [] -> ());
  ignore (Sim.run ~until:(Time.add t_end (Time.ms 2)) sim);
  (sim, rack, obs)

let traced_world ?congested ~seed ~n ~tenants () =
  let sim, rack, obs = rack_world ?congested ~armed:true ~seed ~n ~tenants () in
  (sim, rack, Option.get obs)

(* ------------------------------------------------------------------ *)
(* Tiling                                                             *)
(* ------------------------------------------------------------------ *)

(* The tentpole invariant: for EVERY completed request the five hop
   deltas sum exactly to the end-to-end latency, on normal and congested
   links alike, across random world shapes. *)
let qcheck_tiling =
  QCheck.Test.make ~name:"hop deltas tile e2e for every completed request" ~count:10
    QCheck.(triple int64 (int_range 2 4) (pair (int_range 2 6) bool))
    (fun (seed, n, (tenants, congested)) ->
      let _, rack, obs = traced_world ~congested ~seed ~n ~tenants () in
      Rack_obs.traced obs > 0
      && Rack_obs.traced obs = Rack.completed rack
      && Rack_obs.untiled obs = 0
      && Rack_obs.slot_overflow obs = 0)

let test_tiling_components_in_exemplars () =
  let _, _, obs = traced_world ~congested:true ~seed:21L ~n:3 ~tenants:4 () in
  Alcotest.(check bool) "exemplars captured" true (Rack_obs.exemplars obs <> []);
  List.iter
    (fun (ex : Rack_obs.exemplar) ->
      let sum = Array.fold_left Time.add Time.zero ex.ex_comps in
      Alcotest.(check bool) "exemplar components tile e2e" true
        (Time.equal sum ex.ex_e2e))
    (Rack_obs.exemplars obs)

let test_counters_and_attribution () =
  let _, rack, obs = traced_world ~seed:7L ~n:4 ~tenants:6 () in
  Alcotest.(check int) "every completion traced" (Rack.completed rack)
    (Rack_obs.traced obs);
  Alcotest.(check int) "all traffic is LC here" (Rack_obs.traced obs)
    (Rack_obs.lc_traced obs);
  Alcotest.(check int) "no NVMe-stamp fallbacks on the happy path" 0
    (Rack_obs.fallbacks obs);
  Alcotest.(check bool) "tiling holds" true (Rack_obs.tiling_ok obs);
  let att = Rack_obs.attribution obs in
  Alcotest.(check bool) "attribution reports exact tiling" true
    (contains att "tiling EXACT");
  (* The tracer only stamps: the same rack without it dispatches and
     completes exactly the same requests. *)
  let _, inert, _ = rack_world ~armed:false ~seed:7L ~n:4 ~tenants:6 () in
  Alcotest.(check (array int)) "untraced rack dispatches the same" (Rack.dispatched inert)
    (Rack.dispatched rack);
  Alcotest.(check int) "untraced rack completes the same" (Rack.completed inert)
    (Rack.completed rack)

(* More reads at one instant than the 4096-slot table holds: the excess
   is declined and counted, every read still completes, and the traced
   ones tile. *)
let test_slot_overflow () =
  let sim = Sim.create ~seed:9L () in
  let rack = Rack.create sim ~n_servers:2 ~policy:Policy.Po2c ~seed:11L () in
  let obs = Rack_obs.create rack in
  (match Rack.add_tenant rack ~id:1 ~slo:(Common.be_slo ()) ~replicas:2 with
  | `Placed _ -> ()
  | `Rejected -> Alcotest.fail "placement rejected");
  let excess = 500 in
  let n = 4096 + excess in
  let completed = ref 0 in
  for i = 0 to n - 1 do
    Rack.dispatch_read rack ~tenant:1
      ~lba:(Int64.of_int (i mod 4096 * 8))
      ~len:1024
      ~on_complete:(fun _ -> incr completed)
      ()
  done;
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 500)) sim);
  Alcotest.(check int) "excess counted" excess (Rack_obs.slot_overflow obs);
  Alcotest.(check int) "every read completed" n !completed;
  Alcotest.(check int) "slots traced" 4096 (Rack_obs.traced obs);
  Alcotest.(check int) "untiled" 0 (Rack_obs.untiled obs)

(* A tenant holds one connection per replica and every connection numbers
   its requests from 1, so (tenant, req) repeats across servers.  In a
   rack whose servers share one telemetry, the lane keeps them apart: no
   (lane, tenant, req, stage) is stamped twice, and every breakdown is
   built from exactly one request's eight stamps. *)
let test_shared_telemetry_lanes () =
  let sim = Sim.create ~seed:13L () in
  let telemetry = Telemetry.create () in
  let rack = Rack.create sim ~n_servers:3 ~policy:Policy.Po2c ~seed:17L ~telemetry () in
  let _ : Rack_obs.t = Rack_obs.create rack in
  let tenants = [ 1; 2; 3; 4 ] in
  List.iter
    (fun id ->
      match
        Rack.add_tenant rack ~id ~slo:(Common.lc_slo ~latency_us:300 ~iops:2000 ~read_pct:100)
          ~replicas:2
      with
      | `Placed _ -> ()
      | `Rejected -> Alcotest.fail "placement rejected")
    tenants;
  let t_end = Time.add (Sim.now sim) (Time.ms 3) in
  Sim.every sim ~every:(Time.us 250) ~until:t_end (fun _ -> Rack.sample_probes rack);
  List.iter
    (fun id ->
      Sim.every sim ~every:(Time.us 50) ~until:t_end (fun _ ->
          Rack.dispatch_read rack ~tenant:id ~lba:0L ~len:1024 ()))
    tenants;
  ignore (Sim.run ~until:(Time.add t_end (Time.ms 2)) sim);
  let per_stage = Hashtbl.create 4096 and per_req = Hashtbl.create 1024 in
  let lanes_of = Hashtbl.create 1024 in
  Telemetry.iter_spans telemetry (fun ~time ~lane ~tenant ~req_id ~stage ->
      let k = (lane, tenant, req_id, Stage.to_int stage) in
      Hashtbl.replace per_stage k (1 + Option.value (Hashtbl.find_opt per_stage k) ~default:0);
      let r = (lane, tenant, req_id) in
      Hashtbl.replace per_req r ((stage, time) :: Option.value (Hashtbl.find_opt per_req r) ~default:[]);
      Hashtbl.replace lanes_of (tenant, req_id) lane);
  let shared = ref 0 in
  Hashtbl.iter
    (fun (lane, tenant, req_id) _ ->
      if Hashtbl.find lanes_of (tenant, req_id) <> lane then incr shared)
    per_req;
  Alcotest.(check bool) "(tenant, req) repeats across lanes" true (!shared > 0);
  Hashtbl.iter
    (fun (lane, tenant, req, stage) n ->
      if n > 1 then
        Alcotest.failf "lane %d tenant %d req %Ld stage %s stamped %d times" lane tenant req
          (Stage.name (Stage.of_int stage)) n)
    per_stage;
  let bds = Trace_export.breakdowns telemetry in
  Alcotest.(check bool) "complete breakdowns" true (List.length bds > 100);
  List.iter
    (fun (b : Trace_export.breakdown) ->
      let stamps =
        match Hashtbl.find_opt per_req (b.b_lane, b.b_tenant, b.b_req_id) with
        | Some l -> l
        | None -> Alcotest.fail "breakdown without spans"
      in
      Alcotest.(check int) "one request's eight stamps" 8 (List.length stamps);
      let at i = List.assoc Stage.request_path.(i) stamps in
      Array.iteri
        (fun i c -> Alcotest.(check int64) "component is its own stamps' delta" (Time.diff (at (i + 1)) (at i)) c)
        b.b_components)
    bds

(* ------------------------------------------------------------------ *)
(* Per-kind wraparound accounting (Flight)                            *)
(* ------------------------------------------------------------------ *)

let test_flight_kind_accounting () =
  let fl = Flight.create ~capacity:8 () in
  let at i = Time.us i in
  for i = 1 to 6 do
    Flight.record fl ~now:(at i) ~kind:Flight.Kind.Queue_depth ~a:i ~b:0 ~v:0.0
  done;
  for i = 7 to 12 do
    Flight.record fl ~now:(at i) ~kind:Flight.Kind.Hop ~a:i ~b:8 ~v:1.0
  done;
  let s = Flight.snapshot fl ~now:(at 12) ~window:(Time.ms 1) in
  (* 12 written into 8 slots: the 4 oldest (all Queue_depth) are gone. *)
  Alcotest.(check int) "queue_depth written" 6
    (Flight.snap_kind_written s Flight.Kind.Queue_depth);
  Alcotest.(check int) "hop written" 6 (Flight.snap_kind_written s Flight.Kind.Hop);
  Alcotest.(check int) "queue_depth retained" 2
    (Flight.snap_kind_retained s Flight.Kind.Queue_depth);
  Alcotest.(check int) "hop retained" 6 (Flight.snap_kind_retained s Flight.Kind.Hop);
  Alcotest.(check int) "queue_depth dropped" 4
    (Flight.snap_kind_dropped s Flight.Kind.Queue_depth);
  Alcotest.(check int) "hop dropped" 0 (Flight.snap_kind_dropped s Flight.Kind.Hop);
  Alcotest.(check int) "totals agree" (Flight.total fl) s.Flight.snap_total;
  Alcotest.(check int) "drops agree" (Flight.dropped fl) s.Flight.snap_dropped

(* ------------------------------------------------------------------ *)
(* Gauges (probe age, policy dispatch counters)                       *)
(* ------------------------------------------------------------------ *)

let test_rack_gauges () =
  let sim = Sim.create ~seed:5L () in
  let telemetry = Telemetry.create () in
  let rack = Rack.create sim ~n_servers:3 ~seed:0x5EEDL ~telemetry () in
  (match Rack.add_tenant rack ~id:1 ~slo:(Common.lc_slo ~latency_us:300 ~iops:500 ~read_pct:100) ~replicas:1 with
  | `Placed _ -> ()
  | `Rejected -> Alcotest.fail "placement rejected");
  let gauge name =
    match Telemetry.find_metric telemetry name with
    | Some (`Gauge v) -> v
    | _ -> Alcotest.fail (name ^ " not registered as a gauge")
  in
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.us 400)) sim);
  Alcotest.(check bool) "probe age grows with staleness" true
    (gauge "rack/probe_age_us" >= 400.0);
  Rack.sample_probes rack;
  Alcotest.(check (float 1e-9)) "probe age resets on sample" 0.0
    (gauge "rack/probe_age_us");
  Alcotest.(check (float 1e-9)) "per-server age matches" 0.0
    (gauge "rack/s01/probe_age_us");
  Alcotest.(check (float 1e-9)) "no LC dispatches yet" 0.0
    (gauge "rack/policy/dispatched");
  Rack.dispatch_read rack ~tenant:1 ~lba:0L ~len:1024 ();
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 1)) sim);
  Alcotest.(check (float 1e-9)) "dispatch counter exported" 1.0
    (gauge "rack/policy/dispatched")

(* ------------------------------------------------------------------ *)
(* Stitching and rollup                                               *)
(* ------------------------------------------------------------------ *)

let artifacts ~seed =
  let sim, _, obs = traced_world ~seed ~n:3 ~tenants:4 () in
  let now = Sim.now sim in
  let server_snaps = Rack_obs.snapshot_servers obs ~now ~window:(Time.ms 10) in
  let rack_snap = Rack_obs.snapshot_rack obs ~now ~window:(Time.ms 10) in
  ( Rack_rollup.stitch ~server_snaps ~rack_snap,
    Rack_rollup.chrome_trace ~server_snaps ~rack_snap,
    Rack_obs.migrations obs )

let test_follows_from_stitched () =
  let stitch, chrome, migs = artifacts ~seed:31L in
  Alcotest.(check bool) "a migration happened" true (migs <> []);
  Alcotest.(check bool) "stitch shows the Follows_from parent" true
    (contains stitch "follows_from migrate");
  Alcotest.(check bool) "rollup carries the flow arrows" true
    (contains chrome "\"ph\":\"s\"" && contains chrome "\"ph\":\"f\"");
  Alcotest.(check bool) "rollup names the lanes" true
    (contains chrome "\"name\":\"rack-02\"");
  match Json.parse chrome with
  | exception Json.Bad e -> Alcotest.failf "rollup JSON did not parse: %s" e
  | v ->
    let count k = match Json.mem k v with Some (Json.List l) -> List.length l | _ -> 0 in
    Alcotest.(check bool) "rollup events" true (count "traceEvents" > 0);
    Alcotest.(check int) "one accounting entry per lane" 4 (count "lanes")

let test_stitch_same_seed_rerun () =
  let base_stitch, base_chrome, _ = artifacts ~seed:17L in
  let again_stitch, again_chrome, _ = artifacts ~seed:17L in
  Alcotest.(check string) "stitch byte-identical on rerun" base_stitch again_stitch;
  Alcotest.(check string) "rollup byte-identical on rerun" base_chrome again_chrome

(* ------------------------------------------------------------------ *)
(* Allocation                                                         *)
(* ------------------------------------------------------------------ *)

(* Minor words per read through a two-server rack, dispatch to reply, in
   steady state: four latency-critical tenants on two replicas each,
   batches of four reads per tenant dispatched together and run to
   completion.  The same rack is measured inert and with the tracer
   armed; the difference is what the tracer's per-request hooks
   allocate ([on_dispatch], [on_issue], [on_stage] at the NVMe submit
   and complete stamps, [on_complete]), exemplar admission included.
   Exact for the seed: 12.106 words in the dev profile, 10.106 in
   release, where cross-module inlining saves two words per read;
   each profile is held to its own count ([make alloc-gate] runs it
   alone in release). *)
let rack_read_words ~armed =
  let sim = Sim.create ~seed:5L () in
  let rack = Rack.create sim ~n_servers:2 ~policy:Policy.Po2c ~link:(Link.create ~n:2 ()) ~seed:8L () in
  if armed then ignore (Rack_obs.create ~exemplars:2 rack);
  for id = 1 to 4 do
    match
      Rack.add_tenant rack ~id ~slo:(Common.lc_slo ~latency_us:300 ~iops:500 ~read_pct:100)
        ~replicas:2
    with
    | `Placed _ -> ()
    | `Rejected -> Alcotest.fail "tenant rejected"
  done;
  Rack.sample_probes rack;
  let batch () =
    for id = 1 to 4 do
      for _ = 1 to 4 do
        Rack.dispatch_read rack ~tenant:id ~lba:0L ~len:1024 ()
      done
    done;
    ignore (Sim.run sim)
  in
  for _ = 1 to 10 do
    batch ()
  done;
  let done0 = Rack.completed rack in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    batch ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every read completed" 16_000 (Rack.completed rack - done0);
  words /. 16_000.0

let test_tracer_hook_words () =
  let inert = rack_read_words ~armed:false in
  let armed = rack_read_words ~armed:true in
  let w = armed -. inert in
  let bound = if Build_profile.release then 10.11 else 12.11 in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f - %.3f = %.3f tracer words per read <= %g" armed inert w bound)
    true (w <= bound)

(* ------------------------------------------------------------------ *)
(* Suite                                                              *)
(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "tiling",
      [
        qcheck qcheck_tiling;
        Alcotest.test_case "exemplar components tile" `Quick
          test_tiling_components_in_exemplars;
        Alcotest.test_case "counters + attribution" `Quick test_counters_and_attribution;
        Alcotest.test_case "slot overflow declined and counted" `Quick test_slot_overflow;
        Alcotest.test_case "shared telemetry keys spans by lane" `Quick
          test_shared_telemetry_lanes;
      ] );
    ( "flight",
      [
        Alcotest.test_case "per-kind wraparound accounting" `Quick
          test_flight_kind_accounting;
      ] );
    ( "gauges",
      [ Alcotest.test_case "probe age + dispatch gauges" `Quick test_rack_gauges ] );
    ("alloc", [ Alcotest.test_case "tracer hook words" `Quick test_tracer_hook_words ]);
    ( "rollup",
      [
        Alcotest.test_case "Follows_from stitched" `Quick test_follows_from_stitched;
        Alcotest.test_case "same-seed rerun byte-identical" `Quick
          test_stitch_same_seed_rerun;
      ] );
  ]
