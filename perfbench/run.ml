(* The repository benchmark (see README.md).

   Usage:
     run.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--trace-out PATH]
     run.exe --smoke

   One process runs one workload.  The seed generates every input once;
   then the workload is rebuilt and replayed rep after rep until [S]
   seconds have passed (at least three reps), and each host timing is
   summarised over the reps (see [fastest_slices] and [fast_median]).
   Exact counters come from the first rep, which every later rep must
   reproduce bit for bit (checked through [sim_digest]); one more rep,
   untimed, samples the live heap.  Every metric is printed as [name value unit];
   the last line is one JSON object with the end-to-end metrics
   ([--trace 0]) or the per-layer metrics ([--trace 1], which alternates
   traced and untraced reps and writes the spans as JSONL).  A failed
   output check makes the exit code 1. *)

open Reflex_engine
module Server = Reflex_core.Server
module Hdr = Reflex_stats.Hdr_histogram
module W = Workloads

let end_to_end =
  [
    ("sim_req_per_s", "req/s");
    ("setup_s", "s");
    ("report_s", "s");
    ("minor_words_per_req", "words");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("engine.events_per_req", "count");
    ("engine.minor_words_per_event", "words");
    ("engine.ns_per_event", "ns");
    ("core.register_us", "us");
    ("core.sim_p95_us", "us");
    ("net.bytes_per_req", "B");
    ("net.transmit_ns", "ns");
    ("qos.round_ns", "ns");
    ("qos.round_ns_per_tenant", "ns");
    ("flash.submit_ns", "ns");
    ("stats.record_ns", "ns");
    ("trace.overhead_pct", "%");
  ]

(* ---------------- one rep ---------------- *)

(* Server-side counters, summed over the world's servers. *)
type counters = { net_bytes : int; tokens : float; flash_reads : int; flash_writes : int }

let counters servers =
  Array.fold_left
    (fun c srv ->
      let host = Server.host srv and dev = Server.device srv in
      {
        net_bytes = c.net_bytes + Reflex_net.Fabric.bytes_sent host + Reflex_net.Fabric.bytes_received host;
        tokens = c.tokens +. Server.tokens_spent srv;
        flash_reads = c.flash_reads + Reflex_flash.Nvme_model.reads_completed dev;
        flash_writes = c.flash_writes + Reflex_flash.Nvme_model.writes_completed dev;
      })
    { net_bytes = 0; tokens = 0.0; flash_reads = 0; flash_writes = 0 }
    servers

type rep = {
  setup_s : float;  (** CPU s: world build, registration and admission *)
  slice_cpu : float array;  (** CPU s of each [Sim.run] slice, in order *)
  report_s : float;  (** wall s: end-of-run renders *)
  events : int;
  minor_words : float;  (** allocated while driving *)
  peak_live_words : int;  (** most words live at a slice end; 0 unless sampled *)
  digest : string;
  res : W.result;
  before : counters;
  after : counters;
  world : W.world;
  drive_span : int;
}

(* CPU seconds of each slice of the rep being driven; a rep has a few
   dozen.  Preallocated so that timing a slice allocates nothing. *)
let slice_buf = Array.make 1024 0.0

(* Runs the legs in order, each in fixed 10 ms simulated slices until its
   load length has passed and nothing but daemons is pending.  With
   [~heap], each slice ends with a full major collection and a sample of
   the live words: the collection is untimed, but it allocates, so such
   a rep gives no other number. *)
let drive spans ~heap (world : W.world) =
  let n = ref 0 and events = ref 0 and peak = ref 0 in
  let d = Spans.enter spans Spans.Drive ~tenant:(-1) ~req:(-1) in
  let mw0 = Gc.minor_words () in
  List.iter
    (fun (leg : W.leg) ->
      let e0 = Sim.events_executed leg.sim in
      let t0 = Sim.now leg.sim in
      (* Arming schedules the load; done from an event, it is slice work. *)
      ignore (Sim.at leg.sim t0 leg.arm);
      let stop = Time.add t0 leg.length in
      (* Everything that allocates sits inside the slice span: a minor
         collection triggered between slices would land in no span. *)
      let rec slice k =
        let sp = Spans.enter spans Spans.Slice ~tenant:(-1) ~req:(-1) in
        let c = Sys.time () in
        let until = Time.add t0 (Time.ms (10 * k)) in
        ignore (Sim.run ~until leg.sim);
        let more = Time.(until < stop) in
        slice_buf.(!n) <- Sys.time () -. c;
        incr n;
        Spans.leave spans sp;
        if heap then begin
          Gc.full_major ();
          peak := max !peak (Gc.quick_stat ()).Gc.live_words
        end;
        if more || Sim.live_pending leg.sim > 0 then slice (k + 1)
      in
      slice 1;
      events := !events + (Sim.events_executed leg.sim - e0))
    world.legs;
  let minor_words = Gc.minor_words () -. mw0 in
  Spans.leave spans d;
  (Array.sub slice_buf 0 !n, !events, minor_words, !peak, d)

let run_rep ?(heap = false) build spans =
  Spans.reset spans;
  Gc.full_major ();
  let c0 = Sys.time () in
  let world = build spans in
  let setup_s = Sys.time () -. c0 in
  let before = counters world.W.servers in
  let slice_cpu, events, minor_words, peak_live_words, drive_span = drive spans ~heap world in
  let after = counters world.W.servers in
  let r0 = Spans.now_ns () in
  let rendered = world.W.render () in
  let report_s = float_of_int (Spans.now_ns () - r0) /. 1e9 in
  let res = world.W.result () in
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (res.W.rows @ [ Digest.string rendered ])))
  in
  {
    setup_s;
    slice_cpu;
    report_s;
    events;
    minor_words;
    peak_live_words;
    digest;
    res;
    before;
    after;
    world;
    drive_span;
  }

(* Simulated requests per CPU second inside [Sim.run], from one CPU time
   per slice. *)
let sim_req_per_s r slice_cpu = float_of_int r.res.W.completed /. Array.fold_left ( +. ) 0.0 slice_cpu

(* How [sim_req_per_s] is summarised over a run's reps.  Every rep
   replays identical work slice by slice (they share one [sim_digest]),
   and the other tenants of a shared machine can only add time to a
   slice; so each slice's time is its fastest over the reps, and the
   drive's time is their sum.  README.md compares its run-to-run spread
   with that of the median of whole-rep times. *)
let fastest_slices best r =
  (* A rep with other slices fails the digest check; it adds no time. *)
  if Array.length r.slice_cpu = Array.length best then
    Array.iteri (fun k t -> if t < best.(k) then best.(k) <- t) r.slice_cpu

(* ---------------- traced reps ---------------- *)

let pctl a p =
  if Array.length a = 0 then Float.nan
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int (Array.length a))) - 1 in
    float_of_int a.(max 0 i)
  end

let mean_of a =
  if Array.length a = 0 then Float.nan
  else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

(* Share of the drive span that no slice span covers: the benchmark's own
   loop between [Sim.run] calls. *)
let tiling_gap spans r =
  let slices = Array.fold_left ( + ) 0 (Spans.durations spans Spans.Slice) in
  let drive = Spans.duration spans r.drive_span in
  float_of_int (drive - slices) /. float_of_int drive

(* The slice spans of a traced rep tile its [Sim.run] total within 1%, and
   every span was recorded and closed. *)
let tiles spans r =
  let gap = tiling_gap spans r in
  gap >= 0.0 && gap <= 0.01 && spans.Spans.dropped = 0 && Spans.unclosed spans = 0

(* Host-time per-layer numbers of one traced rep, always in this order. *)
let layer_times spans r =
  let self = Spans.self_times spans in
  let d = Spans.durations spans in
  let total k = float_of_int (Array.fold_left ( + ) 0 (d k)) in
  [
    ("engine.ns_per_event", float_of_int (Spans.self_total spans self Spans.Slice) /. float_of_int r.events, "ns");
    ("core.register_us", pctl (d Spans.Register) 50.0 /. 1e3, "us");
    ("client.issue_ns_p50", pctl (d Spans.Issue) 50.0, "ns");
    ("client.issue_ns_p99", pctl (d Spans.Issue) 99.0, "ns");
    ("rack.dispatch_ns", pctl (d Spans.Dispatch) 50.0, "ns");
    ("rack.probe_us", mean_of (d Spans.Probe) /. 1e3, "us");
    ("telemetry.export_ms", total Spans.Export /. 1e6, "ms");
    ("rack_obs.rollup_ms", total Spans.Rollup /. 1e6, "ms");
    ("stats.report_ms", total Spans.Report /. 1e6, "ms");
  ]

(* How [report_s] and the span timings are summarised over a run's reps.
   Every rep replays identical work, and the other tenants of a shared
   machine can only add time to it, in bursts; so the summary is the
   median of the fastest quarter of the reps. *)
let fast_median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  Kernels.median (Array.sub a 0 (max 1 (Array.length a / 4)))

(* ---------------- metrics ---------------- *)

let per_req r x = x /. float_of_int (max 1 r.res.W.completed)

(* Exact numbers of one rep: identical on every rep of the same seed.
   [minor_words_per_req], exact too, is an end-to-end metric. *)
let exact_metrics (wl : W.t) r =
  let res = r.res in
  let d f = float_of_int (f r.after - f r.before) in
  let ops = d (fun c -> c.flash_reads + c.flash_writes) in
  let servers = r.world.W.servers in
  let mean_over f = Array.fold_left (fun a s -> a +. f s) 0.0 servers /. float_of_int (Array.length servers) in
  let mean_list l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let deficits =
    Array.fold_left
      (fun a srv -> Array.fold_left (fun a t -> a + Server.deficit_notifications srv ~tenant:t) a r.world.W.tenants)
      0 servers
  in
  let never_completed = res.W.issued - res.W.completed in
  let fidelity =
    match Refs.err_pct wl.W.name res.W.sim_value with
    | Some e -> [ ("paper_err_pct", e, "%") ]
    | None -> []
  in
  let slo =
    match res.W.slo with
    | Some (met, lc) -> [ ("slo_met_pct", 100.0 *. float_of_int met /. float_of_int (max 1 lc), "%") ]
    | None -> []
  in
  [
    ( "failed_pct",
      100.0 *. float_of_int (res.W.failed + never_completed) /. float_of_int (max 1 res.W.issued),
      "%" );
  ]
  @ fidelity @ slo
  @ [
      ("engine.events_per_req", per_req r (float_of_int r.events), "count");
      ("engine.minor_words_per_event", r.minor_words /. float_of_int (max 1 r.events), "words");
      ("net.bytes_per_req", per_req r (d (fun c -> c.net_bytes)), "B");
      ("core.thread_util", mean_over (fun s -> mean_list (Server.thread_utilizations s)), "ratio");
      ("core.sim_p95_us", Hdr.percentile_us res.W.latency 95.0, "us");
      ("qos.tokens_per_req", per_req r (r.after.tokens -. r.before.tokens), "tokens");
      ("qos.deficit_notifications", float_of_int deficits, "count");
      ("qos.rejected", float_of_int r.world.W.rejected, "count");
      ("flash.ops", ops, "count");
      ("flash.write_share", d (fun c -> c.flash_writes) /. Float.max 1.0 ops, "ratio");
      ("flash.die_util", mean_over (fun s -> Reflex_flash.Nvme_model.utilization (Server.device s)), "ratio");
    ]
  @ res.W.extra

(* ---------------- output ---------------- *)

let print_metric (name, value, unit) = Printf.printf "%s %.17g %s\n" name value unit

let json_metrics wanted values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = match List.assoc_opt name values with Some v -> v | None -> Float.nan in
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
       wanted)

let finite_all wanted values =
  List.for_all
    (fun (name, _) -> match List.assoc_opt name values with Some v -> Float.is_finite v | None -> false)
    wanted

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
}

let word_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let ensure_dir path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let bench (wl : W.t) o =
  let build = wl.W.prepare ~seed:o.seed ~scale:1.0 in
  (* Sampled before rep0 exists, so that no other world is live. *)
  let peak_heap_mb = word_mb (run_rep ~heap:true build Spans.off).peak_live_words in
  let rep0 = run_rep build Spans.off in
  let exact = exact_metrics wl rep0 in
  let tenants = Kernels.tenant_set rep0.world.W.servers and latency = rep0.res.W.latency in
  let digest0 = rep0.digest and checks0 = rep0.res.W.checks in
  let minor_words_per_req = per_req rep0 rep0.minor_words in
  let issued = rep0.res.W.issued and failed = rep0.res.W.failed + rep0.res.W.issued - rep0.res.W.completed in
  let spans = if o.trace then Spans.create ((3 * issued) + 65536) else Spans.off in
  (* Only numbers are kept from the reps, never their worlds. *)
  let untraced = ref [] and traced = ref [] and digests_ok = ref true and tiling_ok = ref true in
  let untraced_best = Array.make (Array.length rep0.slice_cpu) infinity in
  let traced_best = Array.copy untraced_best in
  let deadline = Spans.now_ns () + int_of_float (o.seconds *. 1e9) in
  let n = ref 0 in
  while
    Spans.now_ns () < deadline
    || List.length !untraced < 3
    || (o.trace && List.length !traced < 3)
  do
    let tr = o.trace && !n mod 2 = 1 in
    let r = run_rep build (if tr then spans else Spans.off) in
    if r.digest <> digest0 then digests_ok := false;
    if tr then begin
      if not (tiles spans r) then tiling_ok := false;
      fastest_slices traced_best r;
      traced := layer_times spans r :: !traced
    end
    else begin
      fastest_slices untraced_best r;
      untraced := (r.setup_s, r.report_s) :: !untraced
    end;
    incr n
  done;
  let untraced = !untraced and traced = !traced in
  let untraced_rps = sim_req_per_s rep0 untraced_best in
  let e2e =
    [
      ("sim_req_per_s", untraced_rps, "req/s");
      ("setup_s", Kernels.median (Array.of_list (List.map fst untraced)), "s");
      ("report_s", fast_median (List.map snd untraced), "s");
      ("minor_words_per_req", minor_words_per_req, "words");
      ("peak_heap_mb", peak_heap_mb, "MB");
    ]
  in
  let checks =
    checks0
    @ [ ("every rep reproduces the first rep's sim_digest", !digests_ok) ]
    @ if o.trace then [ ("traced slice spans tile the Sim.run total within 1%", !tiling_ok) ] else []
  in
  let layer =
    if not o.trace then []
    else begin
      let traced_rps = sim_req_per_s rep0 traced_best in
      let read_ratio = wl.W.read_ratio and bytes = wl.W.bytes in
      let round = Kernels.round_ns ~tenants ~read_ratio ~bytes in
      (* Span timings of layers this workload never calls are absent. *)
      List.filter_map
        (fun (i, (name, _, unit)) ->
          let v = fast_median (List.map (fun lt -> let _, v, _ = List.nth lt i in v) traced) in
          if Float.is_finite v && v > 0.0 then Some (name, v, unit) else None)
        (List.mapi (fun i m -> (i, m)) (List.hd traced))
      @ [
          ("net.transmit_ns", Kernels.transmit_ns ~read_ratio ~bytes, "ns");
          ("qos.round_ns", round, "ns");
          ("qos.round_ns_per_tenant", round /. float_of_int (max 1 (List.length tenants)), "ns");
          ("flash.submit_ns", Kernels.submit_ns ~read_ratio ~bytes, "ns");
          ("stats.record_ns", Kernels.record_ns latency, "ns");
          ("trace.overhead_pct", 100.0 *. ((untraced_rps /. traced_rps) -. 1.0), "%");
        ]
    end
  in
  if o.trace then begin
    let path =
      match o.trace_out with
      | Some p -> p
      | None -> Printf.sprintf "perfbench/_traces/%s-seed%d.trace.jsonl" wl.W.name o.seed
    in
    ensure_dir path;
    Spans.write_jsonl spans path;
    Printf.printf "trace %s (%d spans, last traced rep)\n" path spans.Spans.n
  end;
  Printf.printf "workload %s seed %d: %d timed reps untraced, %d traced\n" wl.W.name o.seed
    (List.length untraced) (List.length traced);
  if Refs.for_workload wl.W.name = [] then
    print_endline "paper_err_pct n/a: no paper reference, this workload is unvalidated";
  let shown = if o.trace then exact @ layer else e2e @ exact in
  List.iter print_metric shown;
  Printf.printf "sim_digest %s md5\n" digest0;
  List.iter (fun (name, ok) -> Printf.printf "check %s: %s\n" name (if ok then "PASS" else "FAIL")) checks;
  let values = List.map (fun (n, v, _) -> (n, v)) shown in
  let wanted = if o.trace then per_layer else end_to_end in
  let correct = List.for_all snd checks && finite_all wanted values in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct issued
    failed (json_metrics wanted values);
  if not correct then exit 1

(* ---------------- smoke ---------------- *)

(* Names listed under [section] in BENCHMARK.json, in file order: every
   ["name": "..."] between that key and the next top-level key. *)
let names_in json section =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then None else if String.sub json i n = sub then Some i else go (i + 1)
    in
    go i
  in
  match find_from 0 (Printf.sprintf "\"%s\"" section) with
  | None -> []
  | Some start ->
    let stop = match find_from (start + 1) "\n  \"" with Some s -> s | None -> String.length json in
    let rec collect i acc =
      match find_from i "\"name\": \"" with
      | Some j when j < stop ->
        let k = j + 9 in
        let e = String.index_from json k '"' in
        collect e (String.sub json k (e - k) :: acc)
      | _ -> List.rev acc
    in
    collect start []

(* Every workload at a tiny length: two runs of one seed agree on the
   digest and on every exact metric, a second seed changes the digest, a
   traced rep tiles, and BENCHMARK.json names exactly the workloads and
   metrics this program prints. *)
let smoke () =
  let scale = 0.05 in
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let exact_of wl seed =
    let r = run_rep (wl.W.prepare ~seed ~scale) Spans.off in
    (r.digest, (r.minor_words, exact_metrics wl r))
  in
  List.iter
    (fun (wl : W.t) ->
      let d1, e1 = exact_of wl 1 and d2, e2 = exact_of wl 1 and d3, _ = exact_of wl 2 in
      check (wl.W.name ^ ": same seed, same digest") (d1 = d2);
      check (wl.W.name ^ ": same seed, same exact metrics") (e1 = e2);
      check (wl.W.name ^ ": other seed, other digest") (d1 <> d3);
      let build = wl.W.prepare ~seed:1 ~scale in
      let spans = Spans.create 1_000_000 in
      (* Tiling is a host-time property: a rep descheduled between two
         slices may try again, twice. *)
      let rec traced k =
        let r = run_rep build spans in
        if tiles spans r || k = 3 then r else traced (k + 1)
      in
      let r = traced 1 in
      let gap = tiling_gap spans r in
      check (wl.W.name ^ ": traced rep tiles") (tiles spans r);
      check (wl.W.name ^ ": traced rep reproduces the digest") (r.digest = d1);
      check (wl.W.name ^ ": output checks") (List.for_all snd r.res.W.checks);
      Printf.printf "smoke %s digest %s tiling gap %.4f%%\n%!" wl.W.name d1 (100.0 *. gap))
    W.all;
  (match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | json ->
    check "BENCHMARK.json workloads" (names_in json "workloads" = List.map (fun w -> w.W.name) W.all);
    check "BENCHMARK.json end_to_end" (names_in json "end_to_end" = List.map fst end_to_end);
    check "BENCHMARK.json per_layer" (names_in json "per_layer" = List.map fst per_layer)
  | exception Sys_error e -> check ("BENCHMARK.json readable: " ^ e) false);
  match !failures with
  | [] -> print_endline "SMOKE OK"
  | fs ->
    List.iter (fun f -> Printf.printf "SMOKE FAIL %s\n" f) (List.rev fs);
    exit 1

(* ---------------- command line ---------------- *)

let usage () =
  prerr_endline
    "usage: run.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--trace-out PATH]\n\
    \       run.exe --smoke";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--smoke" ] then smoke ()
  else begin
    let o = ref { workload = ""; seed = -1; seconds = 30.0; trace = false; trace_out = None } in
    let rec go = function
      | [] -> ()
      | "--workload" :: w :: rest ->
        o := { !o with workload = w };
        go rest
      | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some s when s >= 0 ->
          o := { !o with seed = s };
          go rest
        | _ -> usage ())
      | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 ->
          o := { !o with seconds = s };
          go rest
        | _ -> usage ())
      | "--trace" :: ("0" | "1" as t) :: rest ->
        o := { !o with trace = t = "1" };
        go rest
      | "--trace-out" :: p :: rest ->
        o := { !o with trace_out = Some p };
        go rest
      | _ -> usage ()
    in
    go args;
    match W.find !o.workload with
    | Some wl when !o.seed >= 0 -> bench wl !o
    | _ -> usage ()
  end
