open Reflex_engine
open Reflex_net
open Reflex_proto
open Reflex_client
open Reflex_telemetry

type mode = Quick | Full

let window = function Quick -> Time.ms 150 | Full -> Time.ms 500
let scale_points mode quick full = match mode with Quick -> quick | Full -> full

type reflex_world = {
  sim : Sim.t;
  fabric : Fabric.t;
  server : Reflex_core.Server.t;
  telemetry : Telemetry.t;
}

(* Worlds built by experiments enable telemetry when this flag is set
   (the `--telemetry`/`--trace-out` CLI path).  Each world gets its OWN
   instance — never a shared one — so Runner's domain-parallel sweeps
   stay race-free and deterministic. *)
let default_telemetry = ref false
let set_default_telemetry v = default_telemetry := v

(* The most recent world [make_reflex] armed through [default_telemetry],
   for the reports and exports after a run.  Only those worlds write it,
   and the CLI runs them serially (jobs=1), so no two domains race on it. *)
let last_telemetry : Telemetry.t option ref = ref None

let make_reflex ?(n_threads = 1) ?max_threads ?(qos = true) ?profile ?neg_limit
    ?donate_fraction ?seed ?telemetry () =
  let stash = telemetry = None && !default_telemetry in
  let telemetry =
    match telemetry with
    | Some t -> t
    | None when stash ->
      (* The reports read the scheduler decision log off the flight ring. *)
      let t = Telemetry.create () in
      Telemetry.set_flight t (Reflex_obs.Flight.create ());
      t
    | None -> Telemetry.disabled
  in
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let server =
    Reflex_core.Server.create sim ~fabric ?profile ~n_threads ?max_threads ~qos ?neg_limit
      ?donate_fraction ?seed ~telemetry ()
  in
  if Telemetry.enabled telemetry then begin
    (* Daemon tick: samples while real work is pending, never keeps the
       simulation alive, never perturbs simulation state. *)
    Telemetry.start_sampler telemetry sim ();
    if stash then last_telemetry := Some telemetry
  end;
  { sim; fabric; server; telemetry }

type baseline_world = {
  bsim : Sim.t;
  bfabric : Fabric.t;
  bserver : Reflex_baselines.Baseline_server.t;
}

let make_baseline ~kind ?(n_threads = 1) ?seed () =
  let bsim = Sim.create () in
  let bfabric = Fabric.create bsim () in
  let bserver = Reflex_baselines.Baseline_server.create bsim ~fabric:bfabric ~kind ~n_threads ?seed () in
  { bsim; bfabric; bserver }

let lc_slo ~latency_us ~iops ~read_pct =
  { Message.latency_us; iops; read_pct; latency_critical = true }

let be_slo ?(read_pct = 100) () =
  { Message.latency_us = 0; iops = 0; read_pct; latency_critical = false }

(* Run the simulation in short slices until the registration answer
   arrives — a full drain would also execute any load generators already
   started on this simulation. *)
let register_sync sim client ~tenant ?slo () =
  let result = ref None in
  Client_lib.register client ~tenant ?slo (fun s -> result := Some s);
  let deadline = Time.add (Sim.now sim) (Time.ms 50) in
  let rec wait () =
    (* [live_pending] excludes telemetry daemons, which never drain. *)
    if !result = None && Time.(Sim.now sim < deadline) && Sim.live_pending sim > 0 then begin
      ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.us 200)) sim);
      wait ()
    end
  in
  wait ();
  match !result with Some s -> s | None -> failwith "registration did not complete"

let try_client_of w ?(stack = Stack_model.ix_client) ?slo ?retry ?retry_seed ~tenant () =
  let client =
    Client_lib.connect w.sim w.fabric
      ~server_host:(Reflex_core.Server.host w.server)
      ~accept:(Reflex_core.Server.accept w.server)
      ~stack ?retry ?retry_seed ~telemetry:w.telemetry ()
  in
  match register_sync w.sim client ~tenant ?slo () with
  | Message.Ok -> Ok client
  | s -> Error s

let client_of w ?stack ?slo ?retry ?retry_seed ~tenant () =
  match try_client_of w ?stack ?slo ?retry ?retry_seed ~tenant () with
  | Ok c -> c
  | Error s -> failwith ("registration refused: " ^ Message.status_to_string s)

let client_of_baseline w ?(stack = Stack_model.ix_client) ~tenant () =
  let client =
    Client_lib.connect w.bsim w.bfabric
      ~server_host:(Reflex_baselines.Baseline_server.host w.bserver)
      ~accept:(Reflex_baselines.Baseline_server.accept w.bserver)
      ~stack ()
  in
  (match register_sync w.bsim client ~tenant () with
  | Message.Ok -> ()
  | s -> failwith ("baseline registration failed: " ^ Message.status_to_string s));
  client

type lc_spec = {
  lc_tenant : int;
  lc_latency_us : int;
  lc_iops : int;
  lc_read_pct : int;
  lc_rate : float;
  lc_read_ratio : float;
}

type load = { tenant : int; client : Client_lib.t; gen : Load_gen.t }

(* Each client registers and starts its generator before the next one
   registers: registration runs the simulation, so that interleaving is
   part of the world. *)
let mixed_load w ~seed ~until ~lc ~be_depth ?retry () =
  let sub k = Int64.add seed (Int64.of_int k) in
  let lc =
    List.map
      (fun s ->
        let tenant = s.lc_tenant in
        let client =
          client_of w
            ~slo:(lc_slo ~latency_us:s.lc_latency_us ~iops:s.lc_iops ~read_pct:s.lc_read_pct)
            ?retry
            ?retry_seed:(Option.map (fun _ -> sub (1000 + tenant)) retry)
            ~tenant ()
        in
        let gen =
          Load_gen.open_loop w.sim ~client ~pacing:`Cbr ~mix:`Deterministic ~rate:s.lc_rate
            ~read_ratio:s.lc_read_ratio ~bytes:4096 ~until ~seed:(sub (17 + tenant)) ()
        in
        { tenant; client; gen })
      lc
  in
  let be =
    List.init 2 (fun i ->
        let tenant = 101 + i in
        let client = client_of w ~slo:(be_slo ~read_pct:10 ()) ~tenant () in
        let gen =
          Load_gen.closed_loop w.sim ~client ~depth:be_depth ~read_ratio:0.1 ~bytes:4096 ~until
            ~seed:(sub (91 + i)) ()
        in
        { tenant; client; gen })
  in
  (lc, be)

let digest w loads =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "completed=%d tokens=%.3f threads=%d\n"
    (Reflex_core.Server.requests_completed w.server)
    (Reflex_core.Server.tokens_spent w.server)
    (Reflex_core.Server.active_threads w.server);
  List.iter
    (fun l ->
      Printf.bprintf buf "t%d issued=%d iops=%.1f p95r=%.2f\n" l.tenant (Load_gen.issued l.gen)
        (Load_gen.achieved_iops l.gen) (Load_gen.p95_read_us l.gen))
    loads;
  Buffer.contents buf

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let measure_generators sim gens ~warmup ~window =
  let t0 = Sim.now sim in
  ignore (Sim.run ~until:(Time.add t0 warmup) sim);
  List.iter Load_gen.mark_measurement_start gens;
  ignore (Sim.run ~until:(Time.add t0 (Time.add warmup window)) sim);
  List.iter Load_gen.freeze_window gens;
  (* Short drain so in-flight tails land in the histograms. *)
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 20)) sim)
