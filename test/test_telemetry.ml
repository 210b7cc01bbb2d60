(* Tests for the telemetry layer: ring wraparound, disabled-path no-ops,
   the scheduler decision log read off the flight ring,
   Chrome trace JSON well-formedness (via the shared minimal JSON
   parser), the escaper round-trip through every single-server exporter,
   the components-tile-end-to-end invariant, and byte-identical telemetry
   reports under Runner domain parallelism. *)

open Reflex_engine
open Reflex_client
open Reflex_telemetry
open Reflex_experiments

(* ------------------------------------------------------------------ *)
(* Span ring wraparound                                               *)
(* ------------------------------------------------------------------ *)

let test_span_ring_wraparound () =
  let t = Telemetry.create ~span_capacity:8 () in
  for i = 0 to 19 do
    Telemetry.span t ~now:(Int64.of_int (i * 10)) ~lane:0 ~tenant:1 ~req_id:(Int64.of_int i)
      Telemetry.Stage.Client_submit
  done;
  Alcotest.(check int) "retained" 8 (Telemetry.span_count t);
  Alcotest.(check int) "recorded" 20 (Telemetry.spans_recorded t);
  Alcotest.(check int) "dropped" 12 (Telemetry.spans_dropped t);
  (* Oldest-first iteration over the retained window must yield exactly
     the 8 newest spans: req_ids 12..19. *)
  let seen = ref [] in
  Telemetry.iter_spans t (fun ~time:_ ~lane:_ ~tenant:_ ~req_id ~stage:_ ->
      seen := Int64.to_int req_id :: !seen);
  Alcotest.(check (list int)) "newest kept, oldest-first" [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.rev !seen)

let test_disabled_noop () =
  let t = Telemetry.disabled in
  Telemetry.span t ~now:0L ~lane:0 ~tenant:1 ~req_id:1L Telemetry.Stage.Server_rx;
  let c = Telemetry.counter t "x/y" in
  Telemetry.incr c;
  Telemetry.sample t ~now:0L;
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  Alcotest.(check int) "no spans" 0 (Telemetry.span_count t);
  Alcotest.(check int) "no samples" 0 (Telemetry.sample_count t);
  Alcotest.(check (list string)) "no metrics" [] (Telemetry.metric_names t)

let test_sample_count_and_names () =
  let t = Telemetry.create () in
  (* Register in non-sorted order; names must come out sorted. *)
  List.iter
    (fun n -> Telemetry.register_gauge t n (fun () -> 1.0))
    [ "z/last"; "a/first"; "m/mid" ];
  Telemetry.sample t ~now:(Time.us 1);
  Telemetry.sample t ~now:(Time.us 2);
  Alcotest.(check int) "two ticks" 2 (Telemetry.sample_count t);
  Alcotest.(check int64) "last tick" (Time.us 2) (Telemetry.last_sample t);
  Alcotest.(check (list string)) "sorted" [ "a/first"; "m/mid"; "z/last" ]
    (Telemetry.metric_names t)

(* A fault window still open at export is closed at the latest span,
   fault-mark or sampler-tick time.  Each case makes a different one the
   latest; the sampler-tick case is a world idling past its last span. *)
let test_open_fault_closes_at_last_time () =
  let case ~span ~mark ~tick =
    let t = Telemetry.create () in
    Telemetry.span t ~now:(Time.us span) ~lane:0 ~tenant:1 ~req_id:1L Telemetry.Stage.Client_submit;
    Telemetry.fault_mark t ~now:(Time.us 5) ~label:"open" ~active:true;
    Telemetry.fault_mark t ~now:(Time.us mark) ~label:"closed" ~active:true;
    Telemetry.fault_mark t ~now:(Time.us mark) ~label:"closed" ~active:false;
    Telemetry.sample t ~now:(Time.us tick);
    let events =
      match Json.mem "traceEvents" (Json.parse (Trace_export.to_chrome_json t)) with
      | Some (Json.List l) -> l
      | _ -> Alcotest.fail "missing traceEvents array"
    in
    match List.find_opt (fun e -> Json.mem "name" e = Some (Json.Str "open")) events with
    | Some e -> ( match Json.mem "dur" e with Some (Json.Num dur) -> dur | _ -> nan)
    | None -> Alcotest.fail "open fault window not exported"
  in
  let check name ~span ~mark ~tick =
    Alcotest.(check (float 1e-9)) name
      (float_of_int (max span (max mark tick) - 5))
      (case ~span ~mark ~tick)
  in
  check "sampler tick latest" ~span:10 ~mark:20 ~tick:50;
  check "span latest" ~span:40 ~mark:20 ~tick:30;
  check "fault mark latest" ~span:10 ~mark:60 ~tick:30

(* A rack [Pick] span exports as an instant and leaves the request it
   precedes to tile over the request path alone. *)
let test_pick_span_exports () =
  let t = Telemetry.create () in
  Telemetry.span t ~now:(Time.us 5) ~lane:0 ~tenant:1 ~req_id:1L Telemetry.Stage.Pick;
  Array.iteri
    (fun i stage -> Telemetry.span t ~now:(Time.us (10 * (i + 1))) ~lane:0 ~tenant:1 ~req_id:1L stage)
    Telemetry.Stage.request_path;
  Alcotest.(check int) "one complete request" 1 (List.length (Trace_export.breakdowns t));
  let events =
    match Json.mem "traceEvents" (Json.parse (Trace_export.to_chrome_json t)) with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  Alcotest.(check bool) "pick instant exported" true
    (List.exists
       (fun e -> Json.mem "name" e = Some (Json.Str "pick") && Json.mem "ph" e = Some (Json.Str "i"))
       events)

(* ------------------------------------------------------------------ *)
(* A small traced world                                               *)
(* ------------------------------------------------------------------ *)

(* One LC tenant + one BE write flood on one core, traced end to end.
   Small enough for unit tests, busy enough that queueing and grants
   actually happen. *)
let traced_world ?(rate = 30_000.0) ?flight () =
  let telemetry = Telemetry.create () in
  Option.iter (Telemetry.set_flight telemetry) flight;
  let w = Common.make_reflex ~n_threads:1 ~telemetry () in
  let sim = w.Common.sim in
  Telemetry.start_sampler telemetry sim ();
  let until = Time.add (Sim.now sim) (Time.sec 1) in
  let lc =
    Common.client_of w ~slo:(Common.lc_slo ~latency_us:500 ~iops:50_000 ~read_pct:80) ~tenant:1 ()
  in
  let g_lc =
    Load_gen.open_loop sim ~client:lc ~pacing:`Cbr ~mix:`Deterministic ~rate ~read_ratio:0.8
      ~bytes:4096 ~until ~seed:7L ()
  in
  let be = Common.client_of w ~slo:(Common.be_slo ~read_pct:10 ()) ~tenant:101 () in
  let g_be =
    Load_gen.closed_loop sim ~client:be ~depth:16 ~read_ratio:0.1 ~bytes:4096 ~until ~seed:11L ()
  in
  Common.measure_generators sim [ g_lc; g_be ] ~warmup:(Time.ms 20) ~window:(Time.ms 60);
  telemetry

(* ------------------------------------------------------------------ *)
(* Scheduler decision log                                             *)
(* ------------------------------------------------------------------ *)

module Flight = Reflex_obs.Flight

let report_rows report =
  match String.split_on_char '\n' report with
  | _header :: rows -> List.filter (( <> ) "") rows
  | [] -> []

(* The report's rows are the last 40 decision-kind records of the flight
   ring, in ring order, and the BE flood's throttles read as starvation. *)
let test_decisions_from_flight () =
  let fl = Flight.create () in
  let tel = traced_world ~flight:fl () in
  let name ~tenant : Flight.Kind.t -> string option = function
    | Throttle -> Some (if tenant = 101 then "be_starved" else "throttled")
    | Deficit -> Some "deficit_limit"
    | Donate -> Some "donated"
    | Bucket_take -> Some "bucket_take"
    | Idle_drain -> Some "idle_drain"
    | Bucket_reset -> Some "bucket_reset"
    | _ -> None
  in
  let rows = ref [] in
  Flight.iter fl (fun ~time ~kind ~a ~b ~v ->
      Option.iter
        (fun n ->
          rows :=
            Printf.sprintf "%10.3fms thread%d tenant%-5d %-12s v=%10.1f" (Time.to_float_ms time)
              b a n v
            :: !rows)
        (name ~tenant:a kind));
  let all = List.rev !rows in
  let n = List.length all in
  Alcotest.(check bool) "more decisions than the report shows" true (n > 40);
  let tail = List.filteri (fun i _ -> i >= n - 40) all in
  let report = Telemetry.decisions_report tel in
  Alcotest.(check (list string)) "rows are the flight tail" tail (report_rows report);
  Alcotest.(check bool) "header counts the retained decisions" true
    (String.starts_with report
       ~prefix:(Printf.sprintf "== scheduler decision log (%d retained, showing last 40) ==" n));
  Alcotest.(check bool) "BE throttle prints be_starved" true
    (List.exists (fun r -> List.mem "be_starved" (String.split_on_char ' ' r)) tail)

(* Telemetry alone keeps no decision log: nothing is written and the
   report says the flight recorder is not armed. *)
let test_decisions_need_flight () =
  let tel = traced_world () in
  Alcotest.(check int) "no flight records" 0 (Flight.total (Telemetry.flight tel));
  Alcotest.(check string) "not armed" "== scheduler decision log (flight recorder not armed) ==\n"
    (Telemetry.decisions_report tel)

let test_components_tile () =
  let tel = traced_world () in
  let bds = Trace_export.breakdowns tel in
  Alcotest.(check bool) "some complete requests" true (List.length bds > 100);
  List.iter
    (fun b ->
      let sum = Array.fold_left Time.add 0L b.Trace_export.b_components in
      Alcotest.(check int64)
        (Printf.sprintf "components sum to total (t%d req %Ld)" b.Trace_export.b_tenant
           b.Trace_export.b_req_id)
        b.Trace_export.b_total sum;
      Array.iter
        (fun c -> Alcotest.(check bool) "component non-negative" true Time.(c >= 0L))
        b.Trace_export.b_components)
    bds

let test_chrome_json_roundtrip () =
  let tel = traced_world () in
  let json = Trace_export.to_chrome_json tel in
  let v =
    try Json.parse json with Json.Bad m -> Alcotest.failf "trace JSON did not parse: %s" m
  in
  (match Json.mem "displayTimeUnit" v with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit");
  let events =
    match Json.mem "traceEvents" v with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let n_complete = List.length (Trace_export.breakdowns tel) in
  let xs =
    List.filter (fun e -> Json.mem "ph" e = Some (Json.Str "X")) events
  in
  Alcotest.(check int) "7 duration events per complete request"
    (n_complete * Telemetry.Stage.component_count)
    (List.length xs);
  (* Every event carries the required trace_event fields with sane types. *)
  List.iter
    (fun e ->
      (match Json.mem "name" e with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "event missing name");
      (match Json.mem "ts" e with
      | Some (Json.Num ts) -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
      | _ -> Alcotest.fail "event missing ts");
      match (Json.mem "pid" e, Json.mem "tid" e) with
      | Some (Json.Num _), Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "event missing pid/tid")
    events;
  (* Duration events of one request tile its interval: per (pid, tid),
     sum(dur) = max(ts+dur) - min(ts). *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match (Json.mem "pid" e, Json.mem "tid" e, Json.mem "ts" e, Json.mem "dur" e) with
      | Some (Json.Num pid), Some (Json.Num tid), Some (Json.Num ts), Some (Json.Num dur) ->
        let k = (pid, tid) in
        let sum, lo, hi =
          match Hashtbl.find_opt tbl k with Some x -> x | None -> (0.0, infinity, neg_infinity)
        in
        Hashtbl.replace tbl k (sum +. dur, Float.min lo ts, Float.max hi (ts +. dur))
      | _ -> ())
    xs;
  Hashtbl.iter
    (fun (pid, tid) (sum, lo, hi) ->
      if Float.abs (sum -. (hi -. lo)) > 1e-3 then
        Alcotest.failf "request (pid=%g,tid=%g): components %.3fus <> span %.3fus" pid tid sum
          (hi -. lo))
    tbl

(* ------------------------------------------------------------------ *)
(* One escaper, every exporter                                        *)
(* ------------------------------------------------------------------ *)

module Monitor = Reflex_monitor.Monitor
module Alerts = Reflex_monitor.Alerts
module Te = Reflex_obs.Trace_event

let nasty = "q\"b\\s\tt\rr\001."

let str_at path v =
  match List.fold_left (fun v k -> Option.bind v (Json.mem k)) (Some v) path with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "no string at %s" (String.concat "." path)

let events_of v =
  match Json.mem "traceEvents" v with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "missing traceEvents array"

let find_event cat evs =
  match List.find_opt (fun e -> Json.mem "cat" e = Some (Json.Str cat)) evs with
  | Some e -> e
  | None -> Alcotest.failf "no %s event" cat

(* A fault label and an alert detail carrying a quote, a backslash, a
   tab, a carriage return and a raw control byte go through the request
   trace (with the monitor's alert instants), the flight dump's Chrome
   view and its JSON debrief; every output parses and gives the strings
   back unchanged. *)
let test_exporters_escape () =
  Alcotest.(check string) "escaped form" {|"q\"b\\s\tt\rr\u0001."|} (Te.quote nasty);
  let telemetry = Telemetry.create () in
  Telemetry.set_flight telemetry (Reflex_obs.Flight.create ());
  let w = Common.make_reflex ~telemetry ~seed:5L () in
  let m = Monitor.create ~server:w.Common.server ~telemetry () in
  Alerts.add (Monitor.alerts m) (Alerts.rule ~name:"r" (fun _ _ -> Some nasty));
  let label = "fault " ^ nasty in
  Telemetry.fault_mark telemetry ~now:(Time.ms 1) ~label ~active:true;
  for i = 1 to 3 do
    Monitor.tick m ~now:(Time.ms i)
  done;
  let parse what s = try Json.parse s with Json.Bad e -> Alcotest.failf "%s: %s" what e in
  let trace =
    events_of
      (parse "request trace"
         (Trace_export.to_chrome_json ~extra:(Monitor.chrome_instants m) telemetry))
  in
  Alcotest.(check string) "trace fault label" label (str_at [ "args"; "fault" ] (find_event "fault" trace));
  let detail =
    match Monitor.events m with e :: _ -> e.Alerts.e_detail | [] -> Alcotest.fail "no alert"
  in
  Alcotest.(check bool) "detail carries the string" true
    (String.length detail >= String.length nasty
     && String.sub detail 0 (String.length nasty) = nasty);
  Alcotest.(check string) "alert instant detail" detail
    (str_at [ "args"; "detail" ] (find_event "alert" trace));
  let d =
    match Monitor.flight_dumps m with d :: _ -> d | [] -> Alcotest.fail "no flight dump"
  in
  let chrome = events_of (parse "flight dump" (Monitor.dump_chrome_json d)) in
  Alcotest.(check string) "dump fault name" label (str_at [ "name" ] (find_event "fault" chrome));
  Alcotest.(check string) "dump alert detail" detail
    (str_at [ "args"; "detail" ] (find_event "alert" chrome));
  let debrief = parse "debrief" (Monitor.dump_debrief d) in
  Alcotest.(check string) "debrief trigger detail" detail
    (str_at [ "flight_dump"; "trigger"; "detail" ] debrief);
  match Option.bind (Json.mem "flight_dump" debrief) (Json.mem "fault_windows") with
  | Some (Json.List (fw :: _)) -> Alcotest.(check string) "debrief fault label" label (str_at [ "label" ] fw)
  | _ -> Alcotest.fail "debrief lists no fault window"

(* ------------------------------------------------------------------ *)
(* Determinism under Runner parallelism                               *)
(* ------------------------------------------------------------------ *)

(* Each sweep point builds its own world with its own telemetry, so the
   full observability output (sampled metrics + component summary + SLO
   audit) must be byte-identical between a parallel and a serial run. *)
let test_parallel_determinism () =
  let point rate =
    let tel = traced_world ~rate () in
    Telemetry.metrics_report tel ^ Trace_export.component_report tel ^ Slo_audit.report tel
  in
  let rates = [ 20_000.0; 35_000.0; 50_000.0 ] in
  let serial = Runner.map ~jobs:1 point rates in
  let parallel = Runner.map ~jobs:2 point rates in
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check string) (Printf.sprintf "point %d byte-identical" i) s p)
    (List.combine serial parallel)

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "span ring wraparound keeps newest" `Quick test_span_ring_wraparound;
        Alcotest.test_case "disabled instance is inert" `Quick test_disabled_noop;
        Alcotest.test_case "sample counts ticks; names sorted" `Quick
          test_sample_count_and_names;
        Alcotest.test_case "open fault closes at latest time" `Quick
          test_open_fault_closes_at_last_time;
        Alcotest.test_case "pick span exports as an instant" `Quick test_pick_span_exports;
        Alcotest.test_case "decision log is the flight ring's tail" `Slow
          test_decisions_from_flight;
        Alcotest.test_case "decision log needs an armed flight" `Slow
          test_decisions_need_flight;
        Alcotest.test_case "components tile end-to-end latency" `Slow test_components_tile;
        Alcotest.test_case "chrome trace JSON round-trips" `Slow test_chrome_json_roundtrip;
        Alcotest.test_case "exporters parse and keep escaped strings" `Quick
          test_exporters_escape;
        Alcotest.test_case "parallel runs byte-identical to serial" `Slow
          test_parallel_determinism;
      ] );
  ]
