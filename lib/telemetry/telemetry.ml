open Reflex_engine
open Reflex_stats
module Cursor = Reflex_obs.Cursor
module Flight = Reflex_obs.Flight
module Profiler = Reflex_obs.Profiler

(* The observability core.  One instance per simulated world.  The single
   design rule: when [enabled] is false (the shared {!disabled} value),
   no record operation mutates anything and no record site allocates —
   every hot-path hook in the dataplane is guarded by a read of the
   immutable [enabled] bit.  The enabled path may allocate freely. *)

module Stage = Reflex_obs.Stage

(* ------------------------------------------------------------------ *)
(* Span ring                                                          *)
(* ------------------------------------------------------------------ *)

module Span_ring = struct
  (* [stages] packs the lane above the 4-bit stage code. *)
  type t = {
    cur : Cursor.t;
    times : int64 array;
    tenants : int array;
    req_ids : int64 array;
    stages : int array;
  }

  let create capacity =
    {
      cur = Cursor.create "Span_ring" capacity;
      times = Array.make capacity 0L;
      tenants = Array.make capacity 0;
      req_ids = Array.make capacity 0L;
      stages = Array.make capacity 0;
    }

  let record t ~time ~tenant ~req_id ~stage =
    let i = Cursor.advance t.cur in
    t.times.(i) <- time;
    t.tenants.(i) <- tenant;
    t.req_ids.(i) <- req_id;
    t.stages.(i) <- stage

  let iter t f =
    Cursor.iter t.cur (fun i ->
        let code = t.stages.(i) in
        f ~time:t.times.(i) ~lane:(code lsr 4) ~tenant:t.tenants.(i) ~req_id:t.req_ids.(i)
          ~stage:(code land 15))
end

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

type counter = { mutable value : float }

type metric =
  | Counter of counter
  | Gauge of (unit -> float)
  | Hist of Hdr_histogram.t

(* Causal edges between spans: [Follows_from] chains retry attempts of one
   logical operation (distinct req_ids), [Child_of] hangs a derived span
   under its parent.  Links are rare (retries, remediations), so a list is
   fine — the hot request path never touches them. *)
type link_kind = Follows_from | Child_of

type t = {
  enabled : bool;
  spans : Span_ring.t;
  metrics : (string, metric) Hashtbl.t;
  (* Sampler ticks only count and timestamp: gauges are read on demand
     by the reports and exporters. *)
  mutable sample_count : int;
  mutable last_sample : Time.t;
  mutable sampler_running : bool;
  tenant_slos : (int, bool * int) Hashtbl.t; (* (latency_critical, latency_us) *)
  (* Per-tenant latency histograms, indexed by tenant id; [dummy_hist]
     marks unset slots.  The per-request record path is a bounds check
     and an array load — the former Hashtbl lookup allocated an option
     per request. *)
  mutable tlat : Hdr_histogram.t array;
  mutable faults_rev : (Time.t * string * bool) list; (* (time, label, active), newest first *)
  (* lib/obs attachments: the always-on flight recorder rides on the
     telemetry instance so every layer that already threads a [t] can
     reach it; both default to the shared disabled instances. *)
  mutable flight : Flight.t;
  mutable profiler : Profiler.t;
  mutable links_rev : (Time.t * link_kind * (int * int64) * (int * int64)) list;
      (* causal span links (time, kind, src, dst), newest first *)
  mutable remediations_rev : (Time.t * string * string) list; (* (time, rule, outcome) *)
}

(* Shared sinks handed out by the disabled instance; guarded record
   sites never write to them, so sharing across domains is safe. *)
let dummy_counter = { value = 0.0 }
let dummy_hist = Hdr_histogram.create ()

let make ~enabled ~span_capacity =
  {
    enabled;
    spans = Span_ring.create span_capacity;
    metrics = Hashtbl.create 64;
    sample_count = 0;
    last_sample = Time.zero;
    sampler_running = false;
    tenant_slos = Hashtbl.create 16;
    tlat = [||];
    faults_rev = [];
    flight = Flight.disabled;
    profiler = Profiler.disabled;
    links_rev = [];
    remediations_rev = [];
  }

let disabled = make ~enabled:false ~span_capacity:1
let create ?(span_capacity = 1 lsl 16) () = make ~enabled:true ~span_capacity

let enabled t = t.enabled [@@inline]

(* ---------------- lib/obs attachments ---------------- *)

let flight t = t.flight [@@inline]

let set_flight t fl =
  if not t.enabled then invalid_arg "Telemetry.set_flight: disabled instance";
  t.flight <- fl

let profiler t = t.profiler [@@inline]

(* ---------------- spans ---------------- *)

let span t ~now ~lane ~tenant ~req_id stage =
  if t.enabled then
    Span_ring.record t.spans ~time:now ~tenant ~req_id ~stage:((lane lsl 4) lor Stage.to_int stage)

let attach_stages t sink =
  if t.enabled then
    Stage.attach sink ~stages:(Array.to_list Stage.request_path)
      (fun ~lane ~tenant ~req ~now stage -> span t ~now ~lane ~tenant ~req_id:req stage)

let span_count t = Cursor.length t.spans.cur
let spans_recorded t = Cursor.total t.spans.cur
let spans_dropped t = Cursor.dropped t.spans.cur

let iter_spans t f =
  Span_ring.iter t.spans (fun ~time ~lane ~tenant ~req_id ~stage ->
      f ~time ~lane ~tenant ~req_id ~stage:(Stage.of_int stage))

(* ---------------- metrics ---------------- *)

let counter t name =
  if not t.enabled then dummy_counter
  else
    match Hashtbl.find_opt t.metrics name with
    | Some (Counter c) -> c
    | Some _ -> invalid_arg ("Telemetry.counter: " ^ name ^ " registered as another kind")
    | None ->
      let c = { value = 0.0 } in
      Hashtbl.replace t.metrics name (Counter c);
      c

let add c x = c.value <- c.value +. x
let incr c = add c 1.0
let counter_value c = c.value

let register_gauge t name f = if t.enabled then Hashtbl.replace t.metrics name (Gauge f)
let unregister t name = if t.enabled then Hashtbl.remove t.metrics name

(* Attaching a profiler also publishes its accumulators as gauges, so the
   per-subsystem cost shares reach the Prometheus export with no extra
   plumbing.  The values are host minor words (see Profiler's contract);
   they are only present when a profiler is explicitly attached. *)
let set_profiler t p =
  if not t.enabled then invalid_arg "Telemetry.set_profiler: disabled instance";
  t.profiler <- p;
  if Profiler.enabled p then
    List.iter
      (fun sub ->
        register_gauge t
          (Printf.sprintf "obs/prof/%s/minor_words" (Profiler.Subsystem.name sub))
          (fun () -> Profiler.minor_words p sub))
      Profiler.Subsystem.all

let histogram t name =
  if not t.enabled then dummy_hist
  else
    match Hashtbl.find_opt t.metrics name with
    | Some (Hist h) -> h
    | Some _ -> invalid_arg ("Telemetry.histogram: " ^ name ^ " registered as another kind")
    | None ->
      let h = Hdr_histogram.create () in
      Hashtbl.replace t.metrics name (Hist h);
      h

let metric_names t =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.metrics [] in
  List.sort compare names

(* Typed read-only view of one registered metric, read on demand. *)
let find_metric t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> None
  | Some (Counter c) -> Some (`Counter c.value)
  | Some (Gauge g) -> Some (`Gauge (g ()))
  | Some (Hist h) -> Some (`Hist h)

(* ---------------- tenant dimensions ---------------- *)

let set_tenant_slo t ~tenant ~latency_critical ~latency_us =
  if t.enabled then Hashtbl.replace t.tenant_slos tenant (latency_critical, latency_us)

let tenant_slo t ~tenant = Hashtbl.find_opt t.tenant_slos tenant

let tenants_with_slo t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenant_slos [])

(* Cold path: grow the tenant-histogram array to cover [tenant],
   filling fresh slots with the [dummy_hist] sentinel. *)
let grow_tlat t tenant =
  let cap = Array.length t.tlat in
  let ncap = ref (if cap = 0 then 16 else cap * 2) in
  while !ncap <= tenant do
    ncap := !ncap * 2
  done;
  t.tlat <- Slots.extend t.tlat !ncap dummy_hist

let rec tenant_latency_hist t ~tenant =
  if not t.enabled then dummy_hist
  else if tenant < Array.length t.tlat then begin
    let h = t.tlat.(tenant) in
    if h != dummy_hist then h
    else begin
      let h = Hdr_histogram.create () in
      t.tlat.(tenant) <- h;
      h
    end
  end
  else begin
    grow_tlat t tenant;
    tenant_latency_hist t ~tenant
  end

let record_tenant_latency t ~tenant lat =
  if t.enabled then Hdr_histogram.record (tenant_latency_hist t ~tenant) lat

(* ---------------- causal span links ---------------- *)

let link t ~now ~kind ~src_tenant ~src_req ~dst_tenant ~dst_req =
  if t.enabled then
    t.links_rev <- (now, kind, (src_tenant, src_req), (dst_tenant, dst_req)) :: t.links_rev

let links t = List.rev t.links_rev

let remediation_mark t ~now ~rule ~outcome =
  if t.enabled then begin
    t.remediations_rev <- (now, rule, outcome) :: t.remediations_rev;
    if Flight.enabled t.flight then
      Flight.record t.flight ~now ~kind:Flight.Kind.Remediate
        ~a:(Flight.intern t.flight rule) ~b:(Flight.intern t.flight outcome) ~v:0.0
  end

let remediation_log t = List.rev t.remediations_rev

(* ---------------- fault marks ---------------- *)

let fault_mark t ~now ~label ~active =
  if t.enabled then begin
    t.faults_rev <- (now, label, active) :: t.faults_rev;
    (* Mirror the transition into the flight ring so a forensic dump can
       frame the fault window without consulting telemetry. *)
    if Flight.enabled t.flight then
      Flight.record t.flight ~now
        ~kind:(if active then Flight.Kind.Fault_on else Flight.Kind.Fault_off)
        ~a:(Flight.intern t.flight label) ~b:0 ~v:0.0
  end

let fault_log t = List.rev t.faults_rev

(* Pair start/stop marks into windows, oldest-first.  A start without a
   matching stop yields an open window ([None] end); a stop without a
   start is ignored (defensive — the injector always emits pairs). *)
let fault_windows t =
  let events = fault_log t in
  let open_w : (string * Time.t) list ref = ref [] in
  let closed = ref [] in
  List.iter
    (fun (time, label, active) ->
      if active then open_w := !open_w @ [ (label, time) ]
      else
        let rec take acc = function
          | [] -> None
          | (l, t0) :: rest when l = label -> Some ((l, t0), List.rev_append acc rest)
          | x :: rest -> take (x :: acc) rest
        in
        match take [] !open_w with
        | Some ((l, t0), rest) ->
          open_w := rest;
          closed := (l, t0, Some time) :: !closed
        | None -> ())
    events;
  let still_open = List.map (fun (l, t0) -> (l, t0, None)) !open_w in
  List.sort
    (fun (_, a, _) (_, b, _) -> Time.compare a b)
    (List.rev_append !closed still_open)

let faults_report t =
  let ws = fault_windows t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "== injected faults (%d windows) ==\n" (List.length ws));
  List.iter
    (fun (label, t0, t1) ->
      match t1 with
      | Some t1 ->
        Buffer.add_string buf
          (Printf.sprintf "%10.3fms .. %10.3fms  %s\n" (Time.to_float_ms t0)
             (Time.to_float_ms t1) label)
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "%10.3fms .. (open)       %s\n" (Time.to_float_ms t0) label))
    ws;
  Buffer.contents buf

(* ---------------- sampling ---------------- *)

let sample t ~now =
  if t.enabled then begin
    Profiler.enter t.profiler Profiler.Subsystem.Telemetry;
    t.sample_count <- t.sample_count + 1;
    t.last_sample <- now;
    Profiler.leave t.profiler Profiler.Subsystem.Telemetry
  end

let start_sampler t sim () =
  if t.enabled && not t.sampler_running then begin
    t.sampler_running <- true;
    Sim.every_daemon sim ~every:(Time.ms 1) (fun now -> sample t ~now)
  end

let sample_count t = t.sample_count
let last_sample t = t.last_sample

(* ---------------- reports ---------------- *)

let metrics_report t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== telemetry metrics (%d samples, %d metrics) ==\n" t.sample_count
       (Hashtbl.length t.metrics));
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.metrics name with
      | None -> ()
      | Some (Counter c) -> Buffer.add_string buf (Printf.sprintf "%-34s %14.1f\n" name c.value)
      | Some (Gauge g) -> Buffer.add_string buf (Printf.sprintf "%-34s %14.1f\n" name (g ()))
      | Some (Hist h) ->
        Buffer.add_string buf
          (Printf.sprintf "%-34s n=%-9d mean=%.1fus p95=%.1fus p99=%.1fus\n" name
             (Hdr_histogram.count h) (Hdr_histogram.mean_us h)
             (Hdr_histogram.percentile_us h 95.0)
             (Hdr_histogram.percentile_us h 99.0)))
    (metric_names t);
  Buffer.contents buf

(* The scheduler's Algorithm-1 decisions are the flight ring's token
   kinds other than the per-round Refill and Grant bookkeeping.  A
   Throttle of a best-effort tenant is a BE tenant starved of tokens. *)
let decision_name t ~tenant : Flight.Kind.t -> string option = function
  | Throttle -> (
    match tenant_slo t ~tenant with Some (false, _) -> Some "be_starved" | _ -> Some "throttled")
  | Deficit -> Some "deficit_limit"
  | Donate -> Some "donated"
  | Bucket_take -> Some "bucket_take"
  | Idle_drain -> Some "idle_drain"
  | Bucket_reset -> Some "bucket_reset"
  | _ -> None

let decisions_report t =
  let fl = t.flight in
  if not (Flight.enabled fl) then "== scheduler decision log (flight recorder not armed) ==\n"
  else begin
    let limit = 40 in
    let total = ref 0 in
    Flight.iter fl (fun ~time:_ ~kind ~a ~b:_ ~v:_ ->
        if decision_name t ~tenant:a kind <> None then Stdlib.incr total);
    let total = !total in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf "== scheduler decision log (%d retained, showing last %d) ==\n" total
         (min limit total));
    let skip = total - limit in
    let i = ref 0 in
    Flight.iter fl (fun ~time ~kind ~a ~b ~v ->
        match decision_name t ~tenant:a kind with
        | None -> ()
        | Some name ->
          if !i >= skip then
            Buffer.add_string buf
              (Printf.sprintf "%10.3fms thread%d tenant%-5d %-12s v=%10.1f\n"
                 (Time.to_float_ms time) b a name v);
          Stdlib.incr i);
    Buffer.contents buf
  end
