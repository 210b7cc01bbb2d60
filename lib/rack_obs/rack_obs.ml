open Reflex_engine
module Rack = Reflex_rack.Rack
module Policy = Reflex_rack.Policy
module Server = Reflex_core.Server
module Flight = Reflex_obs.Flight
module Stage = Reflex_obs.Stage
module Corr = Reflex_obs.Corr
module Hdr = Reflex_stats.Hdr_histogram
module Table = Reflex_stats.Table
module Tsdb = Reflex_monitor.Tsdb
module Alerts = Reflex_monitor.Alerts

(* Rack-scale distributed tracing (the stamp table and the tiling rule are
   in rack_obs.mli).  The live context is a preallocated SoA slot table:
   tr_dispatch pops a slot off a freelist and every later stamp indexes
   arrays, so the armed hot path allocates nothing beyond the shared
   correlation entry.  Pick is charged zero (the balancer is synchronous
   today; the column exists so an async/centralized scheduler has
   somewhere to put its decision latency). *)

let capacity = 4096
let ring_capacity = 1 lsl 14
let n_stamps = Array.length Stage.rack_path
let n_components = n_stamps

let component_name = function
  | 0 -> "pick"
  | 1 -> "ingress"
  | 2 -> "queue"
  | 3 -> "service"
  | 4 -> "egress"
  | _ -> "?"

let stamp_name = function
  | 0 -> "pick"
  | 1 -> "issue"
  | 2 -> "submit"
  | 3 -> "complete"
  | 4 -> "reply"
  | _ -> "?"

(* Slot times are plain-int nanoseconds: stores stay unboxed and skip the
   write barrier.  [missing] marks a stamp not seen yet. *)
let missing = -1
let ns time = Int64.to_int time
let us_of_ns d = float_of_int d /. 1e3

(* One of the K worst latency-critical requests, frozen at completion. *)
type exemplar = {
  ex_rid : int;
  ex_tenant : int;
  ex_server : int;
  ex_t0 : Time.t;
  ex_sampled : int;
  ex_bound : Time.t;
  ex_comps : Time.t array;
  ex_e2e : Time.t;
}

type migration = { mg_time : Time.t; mg_tenant : int; mg_src : int; mg_dst : int }

type dump = {
  d_time : Time.t;
  d_rule : string;
  d_server_snaps : Flight.snapshot array;
  d_rack_snap : Flight.snapshot;
}

type t = {
  sim : Sim.t;
  rack : Rack.t;
  n_servers : int;
  policy_index : int;
  k_exemplars : int;
  lanes : int array;  (* server index -> its stage-sink lane *)
  (* live trace contexts: SoA slot table + freelist *)
  sl_rid : int array;
  sl_tenant : int array;
  sl_server : int array;
  sl_req : int array;  (* the correlated request id; [missing] once retired *)
  sl_sampled : int array;
  sl_bound : int array;  (* SLO bound, ns; 0 for best-effort *)
  sl_at : int array;  (* stamps 0..3 of slot i at [i * 4 + k], ns *)
  free : int array;
  mutable n_free : int;
  mutable next_rid : int;
  (* (lane, tenant, req) -> slot for the server-side stamps *)
  pending : Corr.t;
  (* tiling scratch: one request's rack-path stamps and its components *)
  stamps : int array;
  comps : int array;
  (* flight rings: one per server lane plus the rack lane *)
  rings : Flight.t array;
  rack_ring : Flight.t;
  (* per-component attribution, latency-critical completions only *)
  h_comp : Hdr.t array;  (* indexed by component *)
  h_e2e : Hdr.t;
  viol : int array;  (* SLO violations whose dominant component is [i] *)
  mutable viol_total : int;
  (* tiling proof counters *)
  mutable traced : int;
  mutable untiled : int;  (* completions whose deltas did NOT tile e2e *)
  mutable fallbacks : int;  (* completions missing the server-side stamps *)
  mutable slot_overflow : int;  (* dispatches declined: slot table full *)
  mutable lc_traced : int;
  (* tail exemplars, sorted worst-first (desc e2e, asc rid on ties) *)
  mutable exemplars : exemplar list;
  mutable n_exemplars : int;
  mutable ex_floor : int;  (* e2e (ns) of the current K-th worst, once full *)
  (* migration log (cold), newest first *)
  mutable migs : migration list;
  (* alert-edge forensic dump (first Fired edge wins) *)
  mutable dump : dump option;
}

(* ---------------- hot stamp points ---------------- *)

let hop t ~server ~slot ~tenant ~k ~now v =
  Flight.record t.rings.(server) ~now ~kind:Flight.Kind.Hop ~a:t.sl_rid.(slot)
    ~b:((tenant lsl 3) lor k) ~v

let on_dispatch t ~tenant ~server ~sampled ~slo_bound ~now =
  if t.n_free = 0 then begin
    t.slot_overflow <- t.slot_overflow + 1;
    -1
  end
  else begin
    t.n_free <- t.n_free - 1;
    let slot = t.free.(t.n_free) in
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    t.sl_rid.(slot) <- rid;
    t.sl_tenant.(slot) <- tenant;
    t.sl_server.(slot) <- server;
    t.sl_req.(slot) <- missing;
    t.sl_sampled.(slot) <- sampled;
    t.sl_bound.(slot) <- ns slo_bound;
    let base = slot * 4 in
    t.sl_at.(base) <- ns now;
    t.sl_at.(base + 1) <- missing;
    t.sl_at.(base + 2) <- missing;
    t.sl_at.(base + 3) <- missing;
    hop t ~server ~slot ~tenant ~k:0 ~now (float_of_int sampled);
    Flight.record t.rack_ring ~now ~kind:Flight.Kind.Balance ~a:server ~b:t.policy_index
      ~v:(float_of_int sampled);
    slot
  end

let on_issue t ~slot ~server ~tenant ~req ~now =
  let d = ns now - t.sl_at.(slot * 4) in
  t.sl_at.((slot * 4) + 1) <- ns now;
  let req = Int64.to_int req in
  t.sl_req.(slot) <- req;
  Corr.put t.pending ~lane:t.lanes.(server) ~tenant ~req slot;
  hop t ~server ~slot ~tenant ~k:1 ~now (us_of_ns d)

(* Server-side stamps arrive through each server's stage sink; lookups
   that miss are foreign traffic (requests the rack did not dispatch, or
   slots the table declined) and are ignored. *)
let on_stage t ~lane ~tenant ~req ~now stage =
  let k = match stage with Stage.Nvme_submit -> 2 | Stage.Nvme_complete -> 3 | _ -> 0 in
  if k > 0 then begin
    let req = Int64.to_int req in
    let slot = Corr.find t.pending ~lane ~tenant ~req in
    if slot >= 0 then begin
      let base = slot * 4 in
      let d = ns now - t.sl_at.(base + k - 1) in
      t.sl_at.(base + k) <- ns now;
      if k = 3 then begin
        (* The NVMe path is done with this request: retire the correlation
           entry now so the table tracks only in-flight commands. *)
        Corr.remove t.pending ~lane ~tenant ~req;
        t.sl_req.(slot) <- missing
      end;
      hop t ~server:t.sl_server.(slot) ~slot ~tenant ~k ~now (us_of_ns d)
    end
  end

(* Cold: admit a completed LC request into the worst-K exemplar set.
   Strictly-greater e2e replaces; on equal e2e the earlier rid stays. *)
let consider_exemplar t ~slot ~e2e =
  let ex =
    {
      ex_rid = t.sl_rid.(slot);
      ex_tenant = t.sl_tenant.(slot);
      ex_server = t.sl_server.(slot);
      ex_t0 = Int64.of_int t.sl_at.(slot * 4);
      ex_sampled = t.sl_sampled.(slot);
      ex_bound = Int64.of_int t.sl_bound.(slot);
      ex_comps = Array.map Int64.of_int t.comps;
      ex_e2e = Int64.of_int e2e;
    }
  in
  let rec insert = function
    | [] -> [ ex ]
    | x :: rest ->
      if Time.(ex.ex_e2e > x.ex_e2e) then ex :: x :: rest else x :: insert rest
  in
  let xs = insert t.exemplars in
  let xs =
    if List.length xs > t.k_exemplars then List.filteri (fun i _ -> i < t.k_exemplars) xs
    else xs
  in
  t.exemplars <- xs;
  t.n_exemplars <- List.length xs;
  (match List.rev xs with
  | last :: _ when t.n_exemplars = t.k_exemplars -> t.ex_floor <- ns last.ex_e2e
  | _ -> ())

let on_complete t ~slot ~ok ~now =
  ignore ok;
  let server = t.sl_server.(slot) in
  let tenant = t.sl_tenant.(slot) in
  let base = slot * 4 in
  let e2e = ns now - t.sl_at.(base) in
  hop t ~server ~slot ~tenant ~k:4 ~now (us_of_ns e2e);
  (* Error paths can complete without ever reaching the NVMe complete;
     the correlation entry may still be live. *)
  let req = t.sl_req.(slot) in
  if req >= 0 then Corr.remove t.pending ~lane:t.lanes.(server) ~tenant ~req;
  let stamps = t.stamps and c = t.comps in
  stamps.(0) <- t.sl_at.(base);
  stamps.(1) <- t.sl_at.(base + 1);
  stamps.(2) <- t.sl_at.(base + 2);
  stamps.(3) <- t.sl_at.(base + 3);
  stamps.(4) <- ns now;
  if Stage.tile ~stamps ~comps:c ~off:1 > 0 then t.fallbacks <- t.fallbacks + 1;
  if c.(0) + c.(1) + c.(2) + c.(3) + c.(4) <> e2e then t.untiled <- t.untiled + 1;
  t.traced <- t.traced + 1;
  let bound = t.sl_bound.(slot) in
  if bound > 0 then begin
    t.lc_traced <- t.lc_traced + 1;
    for i = 0 to Array.length c - 1 do
      Hdr.record_int t.h_comp.(i) c.(i)
    done;
    Hdr.record_int t.h_e2e e2e;
    if e2e > bound then begin
      t.viol_total <- t.viol_total + 1;
      let dom = Stage.dominant c in
      t.viol.(dom) <- t.viol.(dom) + 1
    end;
    if t.n_exemplars < t.k_exemplars || e2e > t.ex_floor then
      consider_exemplar t ~slot ~e2e
  end;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

let on_migrate t ~tenant ~src ~dst ~now =
  t.migs <- { mg_time = now; mg_tenant = tenant; mg_src = src; mg_dst = dst } :: t.migs;
  Flight.record t.rack_ring ~now ~kind:Flight.Kind.Migrate ~a:tenant ~b:dst
    ~v:(float_of_int src)

(* ---------------- creation / arming ---------------- *)

let create ?(exemplars = 4) rack =
  if exemplars < 1 then invalid_arg "Rack_obs.create: exemplars < 1";
  let n = Rack.n_servers rack in
  let t =
    {
      sim = Rack.sim rack;
      rack;
      n_servers = n;
      policy_index = Policy.kind_index (Rack.policy_kind rack);
      k_exemplars = exemplars;
      lanes = Array.init n (fun i -> Stage.lane (Server.stages (Rack.server rack i)));
      sl_rid = Array.make capacity 0;
      sl_tenant = Array.make capacity 0;
      sl_server = Array.make capacity 0;
      sl_req = Array.make capacity missing;
      sl_sampled = Array.make capacity 0;
      sl_bound = Array.make capacity 0;
      sl_at = Array.make (capacity * 4) missing;
      free = Array.init capacity (fun i -> i);
      n_free = capacity;
      next_rid = 0;
      pending = Corr.create capacity;
      stamps = Array.make n_stamps missing;
      comps = Array.make n_components 0;
      rings = Array.init n (fun _ -> Flight.create ~capacity:ring_capacity ());
      rack_ring = Flight.create ~capacity:ring_capacity ();
      h_comp = Array.init n_components (fun _ -> Hdr.create ());
      h_e2e = Hdr.create ();
      viol = Array.make n_components 0;
      viol_total = 0;
      traced = 0;
      untiled = 0;
      fallbacks = 0;
      slot_overflow = 0;
      lc_traced = 0;
      exemplars = [];
      n_exemplars = 0;
      ex_floor = 0;
      migs = [];
      dump = None;
    }
  in
  for i = 0 to n - 1 do
    Stage.attach (Server.stages (Rack.server rack i))
      ~stages:[ Stage.Nvme_submit; Stage.Nvme_complete ]
      (on_stage t)
  done;
  Rack.set_tracer rack
    {
      Rack.tr_dispatch =
        (fun ~tenant ~server ~sampled ~slo_bound ~now ->
          on_dispatch t ~tenant ~server ~sampled ~slo_bound ~now);
      tr_issue =
        (fun ~slot ~server ~tenant ~req ~now -> on_issue t ~slot ~server ~tenant ~req ~now);
      tr_complete = (fun ~slot ~ok ~now -> on_complete t ~slot ~ok ~now);
      tr_migrate = (fun ~tenant ~src ~dst ~now -> on_migrate t ~tenant ~src ~dst ~now);
    };
  t

(* ---------------- accessors ---------------- *)

let traced t = t.traced
let untiled t = t.untiled
let fallbacks t = t.fallbacks
let slot_overflow t = t.slot_overflow
let lc_traced t = t.lc_traced
let violations t = Array.copy t.viol
let violation_total t = t.viol_total
let exemplars t = t.exemplars
let migrations t = List.rev t.migs
let server_ring t i = t.rings.(i)
let rack_ring t = t.rack_ring

let tiling_ok t = t.traced > 0 && t.untiled = 0

(* ---------------- snapshots ---------------- *)

let snapshot_servers t ~now ~window =
  Array.init t.n_servers (fun i -> Flight.snapshot t.rings.(i) ~now ~window)

let snapshot_rack t ~now ~window = Flight.snapshot t.rack_ring ~now ~window

(* ---------------- monitor wiring ---------------- *)

let burn_rule_name = "rack/slo_burn"

(* The rack monitor's fixed policy: a 0.95 availability target, a 1ms
   tick, and a 4ms trailing window in the forensic dump. *)
let burn_target = 0.95
let tick_every = Time.ms 1
let dump_window = Time.ms 4

let wire_monitor t ~tsdb ~alerts =
  Tsdb.register_cumulative tsdb "rack/slo_good" (fun () ->
      float_of_int (Rack.slo_ok t.rack));
  Tsdb.register_cumulative tsdb "rack/slo_bad" (fun () ->
      float_of_int (Rack.slo_total t.rack - Rack.slo_ok t.rack));
  Alerts.add alerts
    (Alerts.burn_rule ~severity:Alerts.Page ~name:burn_rule_name ~target:burn_target
       ~good:"rack/slo_good" ~bad:"rack/slo_bad" ~short:(1, 8.0) ~long:(3, 4.0) ())

let start_monitor t ~tsdb ~alerts ~until =
  Sim.every t.sim ~every:tick_every ~until (fun _ ->
      let now = Sim.now t.sim in
      Tsdb.tick tsdb ~now;
      let events = Alerts.step alerts tsdb ~now in
      match List.find_opt (fun (e : Alerts.event) -> e.e_kind = Alerts.Fired) events with
      | Some e when t.dump = None ->
        t.dump <-
          Some
            {
              d_time = now;
              d_rule = e.e_rule;
              d_server_snaps = snapshot_servers t ~now ~window:dump_window;
              d_rack_snap = snapshot_rack t ~now ~window:dump_window;
            }
      | _ -> ())

let dump t = t.dump

(* ---------------- rendering ---------------- *)

let us time = Time.to_float_us time

let attribution t =
  let buf = Buffer.create 1024 in
  let tb =
    Table.create ~title:"Per-hop latency attribution (LC completions)"
      ~columns:[ "hop"; "count"; "mean us"; "p95 us"; "p99 us"; "share %" ]
  in
  let mean_sum = ref 0.0 in
  Array.iter (fun h -> mean_sum := !mean_sum +. Hdr.mean_us h) t.h_comp;
  Array.iteri
    (fun i h ->
      Table.add_row tb
        [
          component_name i;
          Table.cell_i (Hdr.count h);
          Table.cell_f ~decimals:1 (Hdr.mean_us h);
          Table.cell_f ~decimals:1 (Hdr.percentile_us h 95.0);
          Table.cell_f ~decimals:1 (Hdr.percentile_us h 99.0);
          Table.cell_f ~decimals:1
            (if !mean_sum <= 0.0 then 0.0 else 100.0 *. Hdr.mean_us h /. !mean_sum);
        ])
    t.h_comp;
  Buffer.add_string buf (Table.render tb);
  Printf.bprintf buf
    "  e2e: %d LC requests traced, mean %.1f us, p99 %.1f us; tiling %s (%d/%d exact, %d stamp fallbacks)\n"
    (Hdr.count t.h_e2e) (Hdr.mean_us t.h_e2e)
    (Hdr.percentile_us t.h_e2e 99.0)
    (if t.untiled = 0 then "EXACT" else "BROKEN")
    (t.traced - t.untiled) t.traced t.fallbacks;
  if t.viol_total = 0 then Buffer.add_string buf "  SLO violations: none\n"
  else begin
    Printf.bprintf buf "  SLO violations: %d, dominant hop:" t.viol_total;
    Array.iteri
      (fun i n ->
        if n > 0 then
          Printf.bprintf buf " %s %d (%.0f%%)" (component_name i) n
            (100.0 *. float_of_int n /. float_of_int t.viol_total))
      t.viol;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

(* The latest migration of [tenant] at or before [time], if any. *)
let follows_from t ~tenant ~time =
  List.find_opt
    (fun m -> m.mg_tenant = tenant && Time.(m.mg_time <= time))
    t.migs (* newest first: the first match is the latest *)

let render_exemplars t =
  let buf = Buffer.create 1024 in
  if t.exemplars = [] then Buffer.add_string buf "  tail exemplars: none (no LC traffic traced)\n"
  else begin
    Printf.bprintf buf "  Tail exemplars (worst %d of %d LC requests):\n"
      (List.length t.exemplars) t.lc_traced;
    List.iteri
      (fun i ex ->
        Printf.bprintf buf
          "    #%d rid=%d tenant=%d -> %s  e2e=%.1f us (bound %.1f, sampled depth %d)\n"
          (i + 1) ex.ex_rid ex.ex_tenant (Rack.server_name ex.ex_server) (us ex.ex_e2e)
          (us ex.ex_bound) ex.ex_sampled;
        (match follows_from t ~tenant:ex.ex_tenant ~time:ex.ex_t0 with
        | Some m ->
          Printf.bprintf buf "       follows_from migrate %s -> %s @ %.1f us\n"
            (Rack.server_name m.mg_src) (Rack.server_name m.mg_dst) (us m.mg_time)
        | None -> ());
        Printf.bprintf buf "       %s us\n"
          (String.concat " | "
             (List.init n_components (fun i ->
                  Printf.sprintf "%s +%.1f" (component_name i) (us ex.ex_comps.(i))))))
      t.exemplars
  end;
  Buffer.contents buf
