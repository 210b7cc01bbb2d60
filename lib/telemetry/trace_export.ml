open Reflex_engine

module Stage = Telemetry.Stage
module Corr = Reflex_obs.Corr
module Te = Reflex_obs.Trace_event

(* Turn the raw span ring into per-request views:
   - Chrome trace_event JSON (load in about://tracing or Perfetto);
   - a per-request latency breakdown whose seven components telescope
     exactly to the end-to-end latency;
   - an aggregate per-component summary.

   Requests are keyed by (lane, tenant, req_id) in the shared correlation
   table — req_ids are only unique per connection, and a tenant holds one
   connection per server it is placed on. *)

type request = {
  r_lane : int;
  r_tenant : int;
  r_req_id : int64;
  r_stamps : int array; (* ns, one per request-path stage; -1 = stage not seen *)
}

let n_stages = Array.length Stage.request_path
let no_request = { r_lane = -1; r_tenant = 0; r_req_id = 0L; r_stamps = [||] }

(* First-seen order: ring iteration is oldest-first, so the request list
   is ordered by first-seen stage, which makes all downstream reports
   deterministic.  A window of [n] spans holds at most [n] requests. *)
let requests tel =
  let cap = Telemetry.span_count tel in
  let index = Corr.create cap in
  let found = Array.make cap no_request and n = ref 0 in
  (* Only request-path stages tile a request; a rack [Pick] span is an
     instant on the timeline and nothing more. *)
  Telemetry.iter_spans tel (fun ~time ~lane ~tenant ~req_id ~stage ->
      let code = Stage.to_int stage in
      if code < n_stages then begin
        let req = Int64.to_int req_id in
        let i = Corr.find index ~lane ~tenant ~req in
        let r =
          if i >= 0 then found.(i)
          else begin
            let r =
              { r_lane = lane; r_tenant = tenant; r_req_id = req_id;
                r_stamps = Array.make n_stages (-1) }
            in
            Corr.put index ~lane ~tenant ~req !n;
            found.(!n) <- r;
            incr n;
            r
          end
        in
        r.r_stamps.(code) <- Int64.to_int time
      end);
  Array.to_list (Array.sub found 0 !n)

(* A request is usable for breakdowns when every stage was stamped and the
   stamps are monotone (a request whose early spans were overwritten by
   ring wraparound fails the first check). *)
let complete r =
  let ok = ref true in
  Array.iteri (fun i s -> if s < 0 || (i > 0 && s < r.r_stamps.(i - 1)) then ok := false) r.r_stamps;
  !ok

type breakdown = {
  b_lane : int;
  b_tenant : int;
  b_req_id : int64;
  b_start : Time.t;
  b_total : Time.t; (* end-to-end client latency *)
  b_components : Time.t array; (* Stage.component_count entries; sums to b_total *)
}

let breakdown_of_request r =
  let comps = Array.make Stage.component_count 0 in
  let _filled : int = Stage.tile ~stamps:r.r_stamps ~comps ~off:0 in
  {
    b_lane = r.r_lane;
    b_tenant = r.r_tenant;
    b_req_id = r.r_req_id;
    b_start = Int64.of_int r.r_stamps.(0);
    b_total = Int64.of_int (r.r_stamps.(n_stages - 1) - r.r_stamps.(0));
    b_components = Array.map Int64.of_int comps;
  }

let breakdowns tel = List.filter complete (requests tel) |> List.map breakdown_of_request

(* ------------------------------------------------------------------ *)
(* Plain-text reports                                                 *)
(* ------------------------------------------------------------------ *)

let breakdown_report tel =
  let top = 10 in
  let bds = breakdowns tel in
  let n = List.length bds in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "== per-request latency breakdown (%d complete requests; top %d by latency) ==\n"
       n (min top n));
  Buffer.add_string buf (Printf.sprintf "%-8s %-10s %10s |" "tenant" "req" "total_us");
  Array.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf " %12s" c))
    Stage.component_names;
  Buffer.add_char buf '\n';
  let worst =
    List.sort (fun a b -> compare b.b_total a.b_total) bds |> fun l ->
    List.filteri (fun i _ -> i < top) l
  in
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "t%-7d %-10Ld %10.2f |" b.b_tenant b.b_req_id (Time.to_float_us b.b_total));
      Array.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf " %12.2f" (Time.to_float_us c)))
        b.b_components;
      Buffer.add_char buf '\n')
    worst;
  Buffer.contents buf

let component_report tel =
  let bds = breakdowns tel in
  let n = Stage.component_count in
  let sums = Array.make n 0.0 and maxs = Array.make n 0.0 and total = ref 0.0 in
  let hists = Array.init n (fun _ -> Reflex_stats.Hdr_histogram.create ()) in
  List.iter
    (fun b ->
      total := !total +. Time.to_float_us b.b_total;
      Array.iteri
        (fun i c ->
          let us = Time.to_float_us c in
          sums.(i) <- sums.(i) +. us;
          if us > maxs.(i) then maxs.(i) <- us;
          Reflex_stats.Hdr_histogram.record hists.(i) c)
        b.b_components)
    bds;
  let count = List.length bds in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== latency component summary (complete requests) ==\n";
  Printf.bprintf buf "%-14s %12s %12s %12s %8s\n" "component" "mean_us" "p95_us" "max_us" "share";
  for i = 0 to n - 1 do
    let share = if !total <= 0.0 then 0.0 else sums.(i) /. !total in
    Printf.bprintf buf "%-14s %12.2f %12.2f %12.2f %7.1f%%\n" Stage.component_names.(i)
      (if count = 0 then 0.0 else sums.(i) /. float_of_int count)
      (Reflex_stats.Hdr_histogram.percentile_us hists.(i) 95.0)
      maxs.(i) (100.0 *. share)
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Causal span trees                                                  *)
(* ------------------------------------------------------------------ *)

(* Chain Follows_from links into per-root attempt chains: each chain is
   [(tenant, [req_id of attempt 0; attempt 1; ...])].  Links are rare
   (one per client retry), so the list walk is fine. *)
let retry_chains tel =
  let links =
    List.filter
      (fun (_, kind, _, _) -> kind = Telemetry.Follows_from)
      (Telemetry.links tel)
  in
  let next = Hashtbl.create 16 and is_dst = Hashtbl.create 16 in
  List.iter
    (fun (_, _, src, dst) ->
      Hashtbl.replace next src dst;
      Hashtbl.replace is_dst dst ())
    links;
  (* Roots in link-record order (chronological, hence deterministic). *)
  links
  |> List.filter_map (fun (_, _, src, _) ->
         if Hashtbl.mem is_dst src then None
         else
           let rec follow key acc =
             match Hashtbl.find_opt next key with
             | Some dst -> follow dst (snd dst :: acc)
             | None -> List.rev acc
           in
           let tenant, root = src in
           Some (tenant, follow src [ root ]))

let retry_tree_report tel =
  let top = 20 in
  let chains = retry_chains tel in
  let n = List.length chains in
  let longest = List.fold_left (fun acc (_, reqs) -> max acc (List.length reqs)) 0 chains in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== retry span trees (%d chains, longest %d attempts; first %d) ==\n" n
       longest (min top n));
  List.iteri
    (fun i (tenant, reqs) ->
      if i < top then
        Buffer.add_string buf
          (Printf.sprintf "t%-4d %d attempts: %s\n" tenant (List.length reqs)
             (String.concat " ~> " (List.map Int64.to_string reqs))))
    chains;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                            *)
(* ------------------------------------------------------------------ *)

(* One complete "X" (duration) event per latency component, plus an
   instant event per raw span so incomplete requests still show up.
   pid = tenant id, tid = dataplane-visible request id. *)

(* Latest timestamp observed anywhere in the telemetry — closes fault
   windows that are still open when the trace is exported. *)
let last_time tel =
  let t = ref 0L in
  let see x = if Time.(x > !t) then t := x in
  Telemetry.iter_spans tel (fun ~time ~lane:_ ~tenant:_ ~req_id:_ ~stage:_ -> see time);
  List.iter (fun (time, _, _) -> see time) (Telemetry.fault_log tel);
  see (Telemetry.last_sample tel);
  !t

(* The whole trace in one buffer.  Rendered sizes run ~125 B per
   component event and ~75 B per instant; sizing above that lets the
   buffer fill without regrowing. *)
let chrome_buffer ?(extra = []) tel =
  let bds = breakdowns tel in
  let size =
    (160 * Stage.component_count * List.length bds) + (96 * Telemetry.span_count tel) + 4096
  in
  let buf = Buffer.create (min size Sys.max_string_length) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let q = Te.seq buf ~sep:"," in
  (* The two bulk event kinds differ per event only from [ts] on; their
     heads are rendered once per component and per stage code. *)
  let component_heads =
    Array.map (fun name -> Te.head ~name ~cat:"request" ~ph:"X" ()) Stage.component_names
  in
  let span_heads =
    Array.init
      (Stage.to_int Stage.Pick + 1)
      (fun code -> Te.head ~name:(Stage.name (Stage.of_int code)) ~cat:"span" ~ph:"i" ~s:"t" ())
  in
  (* Duration events: one per component of each complete request. *)
  List.iter
    (fun b ->
      let tid = Int64.to_int b.b_req_id in
      let t = ref b.b_start in
      for comp = 0 to Stage.component_count - 1 do
        let dur = b.b_components.(comp) in
        Te.event_from q component_heads.(comp) ~ts:!t ~dur ~pid:b.b_tenant ~tid
          ~args:[ ("req", Te.Int tid) ] ();
        t := Time.add !t dur
      done)
    bds;
  (* Instant events: every raw span, so wrap-truncated requests are still
     visible on the timeline. *)
  Telemetry.iter_spans tel (fun ~time ~lane:_ ~tenant ~req_id ~stage ->
      Te.event_from q span_heads.(Stage.to_int stage) ~ts:time ~pid:tenant
        ~tid:(Int64.to_int req_id) ());
  (* Injected-fault windows as duration events on a dedicated row
     (pid 0 / tid 0, cat "fault"), so latency spikes in the viewer line
     up visually with the fault that caused them.  A window still open at
     export time is closed at the latest observed timestamp. *)
  (match Telemetry.fault_windows tel with
  | [] -> ()
  | windows ->
    let close = last_time tel in
    List.iter
      (fun (label, t0, t1) ->
        let t1 = match t1 with Some t1 -> t1 | None -> Time.max t0 close in
        Te.event q ~name:label ~cat:"fault" ~ph:"X" ~ts:t0 ~dur:(Time.diff t1 t0) ~pid:0 ~tid:0
          ~args:[ ("fault", Te.Str label) ] ())
      windows);
  (* Causal links as Chrome flow events: a ["ph":"s"] start anchored at
     the source request's row and a matching ["ph":"f"] finish on the
     destination's, sharing one flow id, so retry chains and remediation
     causality render as arrows between the linked spans. *)
  List.iteri
    (fun id (ts, kind, (src_tenant, src_req), (dst_tenant, dst_req)) ->
      let name = match kind with Telemetry.Follows_from -> "retry" | Telemetry.Child_of -> "child" in
      Te.event q ~name ~cat:"link" ~ph:"s" ~id ~ts ~pid:src_tenant ~tid:(Int64.to_int src_req) ();
      Te.event q ~name ~cat:"link" ~ph:"f" ~bp:"e" ~id ~ts ~pid:dst_tenant
        ~tid:(Int64.to_int dst_req) ())
    (Telemetry.links tel);
  (* Remediation applications as instants on the fault/alert row. *)
  List.iter
    (fun (ts, rule, outcome) ->
      Te.event q ~name:("remediate:" ^ rule) ~cat:"remediation" ~ph:"i" ~s:"g" ~ts ~pid:0 ~tid:0
        ~args:[ ("outcome", Te.Str outcome) ] ())
    (Telemetry.remediation_log tel);
  (* Caller-supplied events (e.g. lib/monitor's alert-timeline instants):
     each element must be one complete JSON trace_event object. *)
  List.iter (Te.raw q) extra;
  Buffer.add_string buf "]}";
  buf

let to_chrome_json ?extra tel = Buffer.contents (chrome_buffer ?extra tel)

let write_chrome_json ?extra tel path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc (chrome_buffer ?extra tel))
