open Reflex_engine
open Reflex_rack
module Hdr = Reflex_stats.Hdr_histogram
module Table = Reflex_stats.Table
module Telemetry = Reflex_telemetry.Telemetry
module Rack_obs = Reflex_rack_obs.Rack_obs
module Rack_rollup = Reflex_rack_obs.Rack_rollup
module Tsdb = Reflex_monitor.Tsdb
module Alerts = Reflex_monitor.Alerts

(* ------------------------------------------------------------------ *)
(* Scale                                                               *)
(* ------------------------------------------------------------------ *)

(* Per-server LC load is held at ~50K IOPS in both modes (the policies
   are differentiated by transient queueing, not saturation); Full grows
   the rack and the measurement window, not the per-server pressure. *)
type scale = {
  s_servers : int;
  s_tenants : int;
  s_replicas : int;
  s_warmup : Time.t;
  s_window : Time.t;
  s_settle : Time.t;  (* migration leg: detector arm -> measure gap *)
  s_total_kiops : float;  (* aggregate LC offered load *)
  s_hot_tenants : int;  (* migration leg: pinned heavy tenants *)
  s_hot_iops : int;  (* each heavy tenant's declared = offered rate *)
}

let scale_of_mode = function
  | Common.Quick ->
    {
      s_servers = 24;
      s_tenants = 2000;
      s_replicas = 3;
      s_warmup = Time.ms 4;
      s_window = Time.ms 16;
      s_settle = Time.ms 4;
      s_total_kiops = 1200.0;
      s_hot_tenants = 60;
      s_hot_iops = 500;
    }
  | Common.Full ->
    {
      s_servers = 32;
      s_tenants = 3000;
      s_replicas = 3;
      s_warmup = Time.ms 8;
      s_window = Time.ms 40;
      s_settle = Time.ms 6;
      s_total_kiops = 1600.0;
      s_hot_tenants = 80;
      s_hot_iops = 500;
    }

let probe_period = Time.us 250
let lc_latency_us = 300
let zipf_theta = 0.7

(* Deterministic Zipf-weighted per-tenant rates summing to [total]. *)
let zipf_rates ~n ~total =
  let w = Array.make n 0.0 in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    w.(i) <- float_of_int (i + 1) ** -.zipf_theta;
    sum := !sum +. w.(i)
  done;
  Array.map (fun x -> total *. x /. !sum) w

(* Add LC tenants 1..[n] at Zipf rates summing to [total], each
   reserving its rate rounded up; the placed [(id, rate)] pairs in id
   order. *)
let place_zipf rack ~n ~total ~replicas =
  let rates = zipf_rates ~n ~total in
  List.filter_map
    (fun i ->
      let id = i + 1 in
      let slo =
        Common.lc_slo ~latency_us:lc_latency_us ~iops:(int_of_float (ceil rates.(i))) ~read_pct:100
      in
      match Rack.add_tenant rack ~id ~slo ~replicas with
      | `Placed _ -> Some (id, rates.(i))
      | `Rejected -> None)
    (List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Result types                                                        *)
(* ------------------------------------------------------------------ *)

type policy_row = {
  p_kind : Policy.kind;
  p_dispatched : int;
  p_completed : int;
  p_p50_us : float;
  p_p95_us : float;
  p_p99_us : float;
  p_slo_pct : float;
  p_imbalance : float;
}

type migration_leg = {
  m_migrations : int;
  m_fires : int;
  m_imbalance_before : float;
  m_imbalance_after : float;
  m_p99_before_us : float;
  m_p99_after_us : float;
}

type obs_leg = {
  o_congested : bool;
  o_traced : int;
  o_untiled : int;
  o_fallbacks : int;
  o_overflow : int;
  o_tiling_ok : bool;
  o_migrations : int;
  o_alert_fired : bool;
  o_dump_line : string;
  o_dominant : int option;  (* dominant violation component rack-wide *)
  o_attribution : string;
  o_exemplars : string;
  o_lanes : string;
  o_stitch : string;
  o_rollup_md5 : string;
}

type result = {
  r_scale : scale;
  r_seed : int64;
  r_servers : int;
  r_tenants : int;
  r_replicas : int;
  r_rows : policy_row list;
  r_migration : migration_leg;
  r_obs : obs_leg list;  (* normal link, then congested link *)
}

(* ------------------------------------------------------------------ *)
(* World building                                                      *)
(* ------------------------------------------------------------------ *)

(* Constant-rate open-loop generator for one tenant: phase-shifted by a
   per-tenant PRNG draw so two thousand CBR streams do not tick in
   lockstep, with a fresh LBA draw per request. *)
let start_cbr sim rack ~tenant ~rate ~len ~t0 ~until =
  let prng = Prng.create (Int64.add (Int64.mul 1_000_003L (Int64.of_int tenant)) 0x2AC3L) in
  let period_us = 1e6 /. rate in
  let phase = Time.of_float_us (Prng.float prng *. period_us) in
  ignore
    (Sim.at sim (Time.add t0 phase) (fun () ->
         Sim.every sim ~every:(Time.of_float_us period_us) ~until (fun _ ->
             Rack.dispatch_read rack ~tenant
               ~lba:(Int64.of_int (Prng.int prng (1 lsl 22) * 8))
               ~len ())))

(* The uneven best-effort soak: server [i] carries a closed-loop BE
   tenant holding [4 * (i mod 4)] concurrent 4KB reads — zero on every
   fourth server, twelve on the heaviest.  Routed through the rack so
   the oracle's fresh counters see it just like the probes do.
   Registration is split from kickoff: registering drives the sim
   forward ([register_sync] slices), so it must happen before the
   experiment captures its start-of-load [t0]. *)
let register_be_soak rack ~sc =
  let regs = ref [] in
  for s = 0 to sc.s_servers - 1 do
    let conc = 4 * (s mod 4) in
    if conc > 0 then begin
      let id = 900_000 + s in
      match Rack.add_tenant_on rack ~id ~slo:(Common.be_slo ()) ~server:s with
      | `Rejected -> ()
      | `Placed _ -> regs := (id, s, conc) :: !regs
    end
  done;
  List.rev !regs

let start_be_soak sim rack ~regs ~until =
  List.iter
    (fun (id, s, conc) ->
      let prng = Prng.create (Int64.of_int (0xBE50 + s)) in
      let rec issue () =
        if Time.(Sim.now sim < until) then
          Rack.dispatch_read rack ~tenant:id
            ~lba:(Int64.of_int (Prng.int prng (1 lsl 22) * 8))
            ~len:65536 ~on_complete:(fun _ -> issue ()) ()
      in
      for _ = 1 to conc do
        issue ()
      done)
    regs

(* Per-server dispatch-count imbalance over a window: max/mean of the
   deltas ([infinity] degenerates to 1.0 on an idle window). *)
let imbalance ~before ~after =
  let n = Array.length before in
  let total = ref 0 and hot = ref 0 in
  for i = 0 to n - 1 do
    let d = after.(i) - before.(i) in
    total := !total + d;
    if d > !hot then hot := d
  done;
  if !total = 0 then 1.0 else float_of_int !hot *. float_of_int n /. float_of_int !total

(* ------------------------------------------------------------------ *)
(* Bakeoff leg: one world per policy                                   *)
(* ------------------------------------------------------------------ *)

let bakeoff_leg ~sc ~seed ~telemetry kind =
  let sim = Sim.create ~seed () in
  let rack =
    Rack.create sim ~n_servers:sc.s_servers ~policy:kind
      ~seed:(Int64.add seed 0x11L) ~telemetry ()
  in
  if Telemetry.enabled telemetry then Telemetry.start_sampler telemetry sim ();
  let placed =
    place_zipf rack ~n:sc.s_tenants ~total:(sc.s_total_kiops *. 1e3) ~replicas:sc.s_replicas
  in
  let be_regs = register_be_soak rack ~sc in
  let t0 = Sim.now sim in
  let t_end = Time.add t0 (Time.add sc.s_warmup sc.s_window) in
  Sim.every sim ~every:probe_period ~until:t_end (fun _ -> Rack.sample_probes rack);
  start_be_soak sim rack ~regs:be_regs ~until:t_end;
  List.iter (fun (id, rate) -> start_cbr sim rack ~tenant:id ~rate ~len:1024 ~t0 ~until:t_end) placed;
  ignore (Sim.run ~until:(Time.add t0 sc.s_warmup) sim);
  let h0 = Hdr.copy (Rack.latency_hist rack) in
  let d0 = Rack.dispatched rack in
  let lc0 = Rack.lc_dispatched rack in
  let ok0 = Rack.slo_ok rack and tot0 = Rack.slo_total rack in
  ignore (Sim.run ~until:t_end sim);
  let hw = Hdr.diff (Hdr.copy (Rack.latency_hist rack)) ~since:h0 in
  let ok = Rack.slo_ok rack - ok0 and tot = Rack.slo_total rack - tot0 in
  ( List.length placed,
    {
      p_kind = kind;
      p_dispatched = Rack.lc_dispatched rack - lc0;
      p_completed = Hdr.count hw;
      p_p50_us = Hdr.percentile_us hw 50.0;
      p_p95_us = Hdr.percentile_us hw 95.0;
      p_p99_us = Hdr.percentile_us hw 99.0;
      p_slo_pct = (if tot = 0 then 0.0 else 100.0 *. float_of_int ok /. float_of_int tot);
      p_imbalance = imbalance ~before:d0 ~after:(Rack.dispatched rack);
    } )

(* ------------------------------------------------------------------ *)
(* Migration leg                                                       *)
(* ------------------------------------------------------------------ *)

(* Replica-free rack (every tenant is homed, not balanced): a crowd of
   small honest tenants is placed normally, then [s_hot_tenants] heavy
   tenants are pinned onto one server — the correlated hot spot
   placement never saw.  Phase A measures the dispatch imbalance with
   the detector disarmed; the detector is then armed, fires on the
   probe-visible depth skew and migrates the heaviest tenants away; a
   settle gap later phase B measures again. *)
let migration_leg ~sc ~seed =
  let sim = Sim.create ~seed:(Int64.add seed 0x99L) () in
  let rack =
    Rack.create sim ~n_servers:sc.s_servers ~policy:Policy.Po2c
      ~seed:(Int64.add seed 0x33L) ()
  in
  let base_slo = Common.lc_slo ~latency_us:lc_latency_us ~iops:100 ~read_pct:100 in
  let crowd = ref [] in
  for i = 0 to sc.s_tenants - 1 do
    let id = i + 1 in
    match Rack.add_tenant rack ~id ~slo:base_slo ~replicas:1 with
    | `Placed _ -> crowd := id :: !crowd
    | `Rejected -> ()
  done;
  let crowd = List.rev !crowd in
  let hot = Rack.tenant_home rack ~tenant:(List.hd crowd) in
  let hot_slo =
    Common.lc_slo ~latency_us:lc_latency_us ~iops:sc.s_hot_iops ~read_pct:100
  in
  let heavies = ref [] in
  for k = 0 to sc.s_hot_tenants - 1 do
    let id = 500_000 + k in
    match Rack.add_tenant_on rack ~id ~slo:hot_slo ~server:hot with
    | `Placed _ -> heavies := id :: !heavies
    | `Rejected -> ()
  done;
  let heavies = List.rev !heavies in
  let t0 = Sim.now sim in
  let span = Time.add sc.s_warmup (Time.add sc.s_window (Time.add sc.s_settle sc.s_window)) in
  let t_end = Time.add t0 span in
  let sk = Skew.create ~cooldown:(Time.us 500) () in
  let armed = ref false in
  Sim.every sim ~every:probe_period ~until:t_end (fun now ->
      Rack.sample_probes rack;
      if !armed then
        match Skew.observe sk ~now ~depths:(Rack.sampled_depths rack) with
        | None -> ()
        | Some hot_srv -> (
          match Rack.hottest_tenant_on rack ~server:hot_srv with
          | None -> ()
          | Some victim -> ignore (Rack.rebalance rack ~tenant:victim)));
  List.iter (fun id -> start_cbr sim rack ~tenant:id ~rate:100.0 ~len:1024 ~t0 ~until:t_end) crowd;
  List.iter
    (fun id ->
      start_cbr sim rack ~tenant:id ~rate:(float_of_int sc.s_hot_iops) ~len:1024 ~t0
        ~until:t_end)
    heavies;
  ignore (Sim.run ~until:(Time.add t0 sc.s_warmup) sim);
  let da0 = Rack.dispatched rack in
  let ha0 = Hdr.copy (Rack.latency_hist rack) in
  ignore (Sim.run ~until:(Time.add t0 (Time.add sc.s_warmup sc.s_window)) sim);
  let da1 = Rack.dispatched rack in
  let ha = Hdr.diff (Hdr.copy (Rack.latency_hist rack)) ~since:ha0 in
  (* Arm the detector only now: phase A is the uncorrected baseline. *)
  armed := true;
  ignore (Sim.run ~until:(Time.sub t_end sc.s_window) sim);
  let db0 = Rack.dispatched rack in
  let hb0 = Hdr.copy (Rack.latency_hist rack) in
  ignore (Sim.run ~until:t_end sim);
  let hb = Hdr.diff (Hdr.copy (Rack.latency_hist rack)) ~since:hb0 in
  {
    m_migrations = Rack.migrations rack;
    m_fires = Skew.fires sk;
    m_imbalance_before = imbalance ~before:da0 ~after:da1;
    m_imbalance_after = imbalance ~before:db0 ~after:(Rack.dispatched rack);
    m_p99_before_us = Hdr.percentile_us ha 99.0;
    m_p99_after_us = Hdr.percentile_us hb 99.0;
  }

(* ------------------------------------------------------------------ *)
(* Tracing leg                                                         *)
(* ------------------------------------------------------------------ *)

(* A small po2c rack with the distributed tracer armed end-to-end:
   per-hop attribution histograms, worst-K exemplars, the rack burn-rate
   alert and its forensic dump, and the cross-server rollup/stitch
   artifacts.  Two variants share one shape: the normal link (sub-us
   ports — tracing shows a service/queue-dominated rack and the alert
   stays quiet) and a congested link (150us switch + 120-270us ports —
   every request blows the 300us SLO on the wire, the dominant-hop table
   points at ingress, and the burn alert fires a rack-wide dump).  A
   forced rebalance of the two heaviest tenants mid-warmup seeds the
   migration log so the stitch shows [Follows_from] parents. *)
let obs_leg ~sc ~seed ~congested =
  let n = min sc.s_servers 8 in
  let tenants = max 16 (min 64 (sc.s_tenants / 25)) in
  let warmup = Time.ms 2 and window = Time.ms 8 in
  let sim = Sim.create ~seed:(Int64.add seed 0x0B5L) () in
  let link =
    if congested then
      Link.create ~switch:(Time.us 150) ~port_base:(Time.us 120)
        ~port_spread:(Time.us 150) ~n ()
    else Link.create ~n ()
  in
  let rack =
    Rack.create sim ~n_servers:n ~policy:Policy.Po2c ~link
      ~seed:(Int64.add seed 0x0B7L) ()
  in
  let obs = Rack_obs.create ~exemplars:3 rack in
  let tsdb = Tsdb.create () in
  let alerts = Alerts.create () in
  Rack_obs.wire_monitor obs ~tsdb ~alerts;
  let placed =
    place_zipf rack ~n:tenants ~total:(25e3 *. float_of_int n) ~replicas:(min sc.s_replicas n)
  in
  let t0 = Sim.now sim in
  let span = Time.add warmup window in
  let t_end = Time.add t0 span in
  Sim.every sim ~every:probe_period ~until:t_end (fun _ -> Rack.sample_probes rack);
  Rack_obs.start_monitor obs ~tsdb ~alerts ~until:t_end;
  List.iter
    (fun (id, rate) -> start_cbr sim rack ~tenant:id ~rate ~len:1024 ~t0 ~until:t_end)
    placed;
  (match placed with
  | (a, _) :: (b, _) :: _ ->
    ignore
      (Sim.at sim
         (Time.add t0 (Time.ms 1))
         (fun () ->
           ignore (Rack.rebalance rack ~tenant:a);
           ignore (Rack.rebalance rack ~tenant:b)))
  | _ -> ());
  ignore (Sim.run ~until:t_end sim);
  let now = Sim.now sim in
  let server_snaps = Rack_obs.snapshot_servers obs ~now ~window:span in
  let rack_snap = Rack_obs.snapshot_rack obs ~now ~window:span in
  let dominant =
    if Rack_obs.violation_total obs = 0 then None
    else Some (Reflex_obs.Stage.dominant (Rack_obs.violations obs))
  in
  let dump_line =
    match Rack_obs.dump obs with
    | None -> "  forensic dump: none\n"
    | Some d ->
      let events =
        Array.fold_left
          (fun acc s -> acc + Reflex_obs.Flight.snap_length s)
          (Reflex_obs.Flight.snap_length d.Rack_obs.d_rack_snap)
          d.Rack_obs.d_server_snaps
      in
      Printf.sprintf "  forensic dump: rule %s @ %.1f us, %d lane events frozen\n"
        d.Rack_obs.d_rule
        (Time.to_float_us d.Rack_obs.d_time)
        events
  in
  {
    o_congested = congested;
    o_traced = Rack_obs.traced obs;
    o_untiled = Rack_obs.untiled obs;
    o_fallbacks = Rack_obs.fallbacks obs;
    o_overflow = Rack_obs.slot_overflow obs;
    o_tiling_ok = Rack_obs.tiling_ok obs;
    o_migrations = List.length (Rack_obs.migrations obs);
    o_alert_fired = Alerts.fired_total alerts > 0;
    o_dump_line = dump_line;
    o_dominant = dominant;
    o_attribution = Rack_obs.attribution obs;
    o_exemplars = Rack_obs.render_exemplars obs;
    o_lanes = Rack_rollup.lane_summary ~server_snaps ~rack_snap;
    o_stitch = Rack_rollup.stitch ~server_snaps ~rack_snap;
    o_rollup_md5 = Digest.to_hex (Digest.string (Rack_rollup.chrome_trace ~server_snaps ~rack_snap));
  }

(* ------------------------------------------------------------------ *)
(* Run / predicates / render                                           *)
(* ------------------------------------------------------------------ *)

let run ?(mode = Common.Quick) ?(seed = 42L) ?jobs ?scale () =
  let sc = match scale with Some sc -> sc | None -> scale_of_mode mode in
  let legs =
    Runner.map ?jobs
      (fun kind -> bakeoff_leg ~sc ~seed ~telemetry:Telemetry.disabled kind)
      Policy.all
  in
  let placed = match legs with (n, _) :: _ -> n | [] -> 0 in
  {
    r_scale = sc;
    r_seed = seed;
    r_servers = sc.s_servers;
    r_tenants = placed;
    r_replicas = sc.s_replicas;
    r_rows = List.map snd legs;
    r_migration = migration_leg ~sc ~seed;
    r_obs =
      [ obs_leg ~sc ~seed ~congested:false; obs_leg ~sc ~seed ~congested:true ];
  }

let row r kind = List.find (fun p -> p.p_kind = kind) r.r_rows

let po2c_beats_random r = (row r Policy.Po2c).p_p99_us < (row r Policy.Random).p_p99_us

let oracle_best r =
  let o = (row r Policy.Oracle).p_slo_pct in
  List.for_all (fun p -> o >= p.p_slo_pct -. 1e-9) r.r_rows

let oracle_gap r =
  let o = (row r Policy.Oracle).p_p99_us in
  if o <= 0.0 then 1.0 else (row r Policy.Po2c).p_p99_us /. o

let migrations_applied r = r.r_migration.m_migrations > 0

let migration_helps r =
  r.r_migration.m_imbalance_after < r.r_migration.m_imbalance_before

(* Tracing predicates: every leg traced traffic and tiled exactly; the
   congested-link leg blames the wire (dominant hop = ingress) and fires
   the rack burn alert with a forensic dump; migrations were stitched. *)
let obs_tiling_exact r =
  r.r_obs <> [] && List.for_all (fun o -> o.o_tiling_ok && o.o_overflow = 0) r.r_obs

let obs_congested_blames_ingress r =
  List.exists (fun o -> o.o_congested && o.o_dominant = Some 1) r.r_obs

let obs_alert_fired r =
  List.exists (fun o -> o.o_congested && o.o_alert_fired) r.r_obs

let obs_migrations_stitched r = List.for_all (fun o -> o.o_migrations > 0) r.r_obs

let checks r =
  [
    Identity.check "po2c beats random on p99" (po2c_beats_random r);
    Identity.check "oracle's SLO compliance is the best" (oracle_best r);
    Identity.check "skew detector migrated tenants" (migrations_applied r);
    Identity.check "migration reduced dispatch imbalance" (migration_helps r);
    Identity.check "hop deltas tile e2e in every traced leg" (obs_tiling_exact r);
    Identity.check "congested link's dominant hop is ingress" (obs_congested_blames_ingress r);
    Identity.check "rack burn alert fired on the congested leg" (obs_alert_fired r);
    Identity.check "migrations stitched into the trace logs" (obs_migrations_stitched r);
  ]

let render_result r =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "Rack bakeoff: %d servers, %d LC tenants (R=%d, Zipf %.1f), uneven BE soak, seed %Ld\n\n"
    r.r_servers r.r_tenants r.r_replicas zipf_theta r.r_seed;
  let t =
    Table.create ~title:"Policy bakeoff (windowed, rack-wide)"
      ~columns:
        [ "policy"; "dispatched"; "completed"; "p50 us"; "p95 us"; "p99 us"; "SLO %"; "imbalance" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          Policy.kind_name p.p_kind;
          Table.cell_i p.p_dispatched;
          Table.cell_i p.p_completed;
          Table.cell_f ~decimals:1 p.p_p50_us;
          Table.cell_f ~decimals:1 p.p_p95_us;
          Table.cell_f ~decimals:1 p.p_p99_us;
          Table.cell_f ~decimals:2 p.p_slo_pct;
          Table.cell_f ~decimals:2 p.p_imbalance;
        ])
    r.r_rows;
  Buffer.add_string buf (Table.render t);
  Printf.bprintf buf "\n  po2c pays %.2fx the oracle's p99 for probe staleness\n\n"
    (oracle_gap r);
  let m = r.r_migration in
  Printf.bprintf buf
    "Migration leg (R=1, %d pinned heavies): %d skew firings, %d migrations\n"
    r.r_scale.s_hot_tenants m.m_fires m.m_migrations;
  Printf.bprintf buf "  dispatch imbalance %.2f -> %.2f, LC p99 %.1f -> %.1f us\n\n"
    m.m_imbalance_before m.m_imbalance_after m.m_p99_before_us m.m_p99_after_us;
  List.iter
    (fun o ->
      Printf.bprintf buf "Rack tracing (%s link): %d traced, %d stamp fallbacks, %d migrations\n"
        (if o.o_congested then "congested" else "normal")
        o.o_traced o.o_fallbacks o.o_migrations;
      Buffer.add_string buf o.o_attribution;
      Buffer.add_string buf o.o_exemplars;
      Buffer.add_string buf o.o_lanes;
      (* first span tree with a Follows_from parent, if the window kept one *)
      (let lines = String.split_on_char '\n' o.o_stitch in
       let rec skip = function
         | rid_line :: ff :: rest
           when String.length rid_line > 3
                && String.sub rid_line 0 4 = "rid "
                && String.length ff > 14
                && String.sub ff 0 15 = "  follows_from " ->
           Printf.bprintf buf "  stitched span tree:\n    %s\n    %s\n" rid_line ff;
           let rec dump = function
             | l :: rest when String.length l > 2 && String.sub l 0 2 = "  " ->
               Printf.bprintf buf "    %s\n" l;
               dump rest
             | _ -> ()
           in
           dump rest
         | _ :: rest -> skip rest
         | [] -> ()
       in
       skip lines);
      Printf.bprintf buf "  rollup md5 %s, stitch md5 %s (%d bytes), alert fired: %b\n%s\n"
        o.o_rollup_md5
        (Digest.to_hex (Digest.string o.o_stitch))
        (String.length o.o_stitch) o.o_alert_fired o.o_dump_line)
    r.r_obs;
  let checks = checks r in
  Buffer.add_string buf (Identity.lines checks);
  Printf.bprintf buf "\n%s\n" (if Identity.all_ok checks then "RACK OK" else "RACK FAILED");
  Buffer.contents buf

let render ?mode ?seed ?jobs ?scale () = render_result (run ?mode ?seed ?jobs ?scale ())

let export_leg ?(mode = Common.Quick) ?(seed = 42L) () =
  let sc = scale_of_mode mode in
  let telemetry = Telemetry.create () in
  Telemetry.set_flight telemetry (Reflex_obs.Flight.create ());
  ignore (bakeoff_leg ~sc ~seed ~telemetry Policy.Po2c);
  telemetry
