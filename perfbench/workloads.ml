(* The four benchmark workloads.  Each one turns a seed into inputs once
   per run, then builds its world through the program's public APIs once
   per rep; the drive loop in [Run] replays the inputs from the
   benchmark's own simulation events. *)

open Reflex_engine
open Reflex_net
open Reflex_proto
open Reflex_client
module Server = Reflex_core.Server
module Telemetry = Reflex_telemetry.Telemetry
module Rack = Reflex_rack.Rack
module Rack_obs = Reflex_rack_obs.Rack_obs
module Rack_rollup = Reflex_rack_obs.Rack_rollup
module Hdr = Reflex_stats.Hdr_histogram
module Table = Reflex_stats.Table

(* A simulation and the load one pass of the drive loop runs on it:
   [arm] schedules the load at the current simulated time, and the loop
   runs [length] of simulated time plus the drain. *)
type leg = { sim : Sim.t; length : Time.t; arm : unit -> unit }

type result = {
  rows : string list;  (** every simulated statistic, exactly; md5 = sim_digest *)
  issued : int;
  completed : int;
  failed : int;  (** completions with a non-Ok status *)
  latency : Hdr.t;  (** latencies of the requests due inside the windows *)
  slo : (int * int) option;  (** LC requests within their SLO, LC requests issued *)
  sim_value : string -> float;  (** simulated value of a {!Refs} row key *)
  extra : (string * float * string) list;  (** workload-specific layer counters *)
  checks : (string * bool) list;
}

type world = {
  legs : leg list;
  servers : Server.t array;
  tenants : int array;  (** every tenant id registered, on any server *)
  rejected : int;  (** registrations the control plane refused *)
  render : unit -> string;  (** the end-of-run renders *)
  result : unit -> result;
}

type t = {
  name : string;
  bytes : int;  (** request size the replay kernels use *)
  read_ratio : float;
  prepare : seed:int -> scale:float -> Spans.t -> world;
      (** generates the inputs; the returned function builds one world *)
}

let ms_scaled scale ms = Time.of_float_us (1e3 *. ms *. scale)

(* Independent streams per purpose: inputs and each world's seeds never
   share a PRNG, so adding a tenant does not shift another's draws. *)
let root ~seed ~salt = Prng.create (Int64.logxor (Int64.of_int seed) salt)
let seed_of prng = Prng.bits64 prng

let lc_slo ~latency_us ~iops ~read_pct = { Message.latency_us; iops; read_pct; latency_critical = true }
let be_slo ~read_pct = { Message.best_effort_slo with read_pct }

(* ---------------- single-server worlds ---------------- *)

type server_world = {
  sim : Sim.t;
  fabric : Fabric.t;
  server : Server.t;
  telemetry : Telemetry.t;
}

let server_world (sim_seed, server_seed) ~telemetry =
  let sim = Sim.create ~seed:sim_seed () in
  let fabric = Fabric.create sim () in
  let server = Server.create sim ~fabric ~seed:server_seed ~telemetry () in
  if Telemetry.enabled telemetry then Telemetry.start_sampler telemetry sim ();
  { sim; fabric; server; telemetry }

let world_seeds prng =
  let sim_seed = seed_of prng in
  (sim_seed, seed_of prng)

(* Connect, register, and run the simulation until the verdict lands (no
   load is armed yet, so the run drains). *)
let register w spans ~tenant ~slo ?host () =
  let sp = Spans.enter spans Spans.Register ~tenant ~req:(-1) in
  let client =
    Client_lib.connect w.sim w.fabric ~server_host:(Server.host w.server)
      ~accept:(Server.accept w.server) ~stack:Stack_model.ix_client ?host ~telemetry:w.telemetry ()
  in
  let verdict = ref None in
  Client_lib.register client ~tenant ~slo (fun st -> verdict := Some st);
  ignore (Sim.run w.sim);
  Spans.leave spans sp;
  match !verdict with Some Message.Ok -> Some client | _ -> None

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let merged hists =
  let h = Hdr.create () in
  List.iter (fun src -> Hdr.merge ~dst:h ~src) hists;
  h

let stream_latency (s : Load.stream) = merged [ s.reads; s.writes ]

let server_row srv =
  let dev = Server.device srv in
  Printf.sprintf "server completed=%d tokens=%.17g reads=%d writes=%d util=%.17g"
    (Server.requests_completed srv) (Server.tokens_spent srv)
    (Reflex_flash.Nvme_model.reads_completed dev)
    (Reflex_flash.Nvme_model.writes_completed dev)
    (List.fold_left ( +. ) 0.0 (Server.thread_utilizations srv))

let sim_row sim = Printf.sprintf "sim events=%d now=%Ld" (Sim.events_executed sim) (Sim.now sim)

(* The output checks every single-server workload shares: every issued
   request completed by the end of the drain, and the server's
   per-tenant completions add up to its total, which is what the bench
   saw complete. *)
let server_checks (groups : (Server.t * Load.stream list) list) =
  let all = List.concat_map snd groups in
  [
    ( "every issued request completed or failed by drain",
      List.for_all
        (fun (s : Load.stream) -> s.completed = s.issued && Client_lib.inflight s.client = 0)
        all );
    ( "per-tenant completions sum to Server.requests_completed",
      List.for_all
        (fun (srv, streams) ->
          let tenants = List.sort_uniq compare (List.map (fun (s : Load.stream) -> s.tenant) streams) in
          let per_tenant = sum (fun tenant -> Server.tenant_completed srv ~tenant) tenants in
          per_tenant = Server.requests_completed srv
          && per_tenant = sum (fun (s : Load.stream) -> s.completed) streams)
        groups );
  ]

let stream_totals streams =
  ( sum (fun (s : Load.stream) -> s.issued) streams,
    sum (fun (s : Load.stream) -> s.completed) streams,
    sum (fun (s : Load.stream) -> s.failed) streams )

let lc_slo_counts streams =
  let lc = List.filter Load.lc streams in
  (sum (fun (s : Load.stream) -> s.slo_met) lc, sum (fun (s : Load.stream) -> s.issued) lc)

(* Streams sharing a client must appear once. *)
let client_retries streams =
  ("client.retries", float_of_int (sum (fun (s : Load.stream) -> Client_lib.retries s.client) streams), "count")

let rendered spans kind f =
  let sp = Spans.enter spans kind ~tenant:(-1) ~req:(-1) in
  let s = f () in
  Spans.leave spans sp;
  s

(* ---------------- read_sweep ---------------- *)

(* Table 2's qd-1 probe (4KB reads, then writes, 50us think) and Fig 4's
   1-thread ReFlex sweep (4 IX connections, Poisson 1KB reads).  Every
   tenant is best effort and telemetry is off, so the engine, dataplane,
   net and flash read path do nearly all the work. *)
let sweep_rates = [ 200e3; 400e3; 600e3; 800e3; 880e3 ]

let read_sweep =
  let prepare ~seed ~scale =
    let prng = root ~seed ~salt:0x5EE9L in
    let probe_warm = ms_scaled scale 5.0 and probe_win = ms_scaled scale 55.0 in
    let warm = ms_scaled scale 4.0 and win = ms_scaled scale 12.0 in
    let probe_reads = Load.closed_loop (Prng.split prng) ~read_ratio:1.0 in
    let probe_writes = Load.closed_loop (Prng.split prng) ~read_ratio:0.0 in
    let points =
      List.map
        (fun rate ->
          let p = Prng.split prng in
          ( rate,
            Array.init 4 (fun _ ->
                Load.open_loop p ~pacing:`Poisson ~mix:`Random ~rate:(rate /. 4.0) ~read_ratio:1.0
                  ~length:(Time.add warm win)) ))
        sweep_rates
    in
    let probe_seeds = world_seeds prng in
    let point_seeds = List.map (fun _ -> world_seeds prng) sweep_rates in
    fun spans ->
      let rejected = ref 0 in
      let attach w ~tenant ~bytes inp =
        match register w spans ~tenant ~slo:(be_slo ~read_pct:100) () with
        | Some c -> Some (Load.stream w.sim spans c ~tenant ~bytes ~slo_ns:Time.zero inp)
        | None ->
          incr rejected;
          None
      in
      let pw = server_world probe_seeds ~telemetry:Telemetry.disabled in
      let probe =
        match register pw spans ~tenant:1 ~slo:(be_slo ~read_pct:100) () with
        | Some c ->
          let mk inp = Load.stream pw.sim spans c ~tenant:1 ~bytes:4096 ~slo_ns:Time.zero inp in
          [ mk probe_reads; mk probe_writes ]
        | None ->
          incr rejected;
          []
      in
      let probe_leg (s : Load.stream) =
        {
          sim = pw.sim;
          length = Time.add probe_warm probe_win;
          arm =
            (fun () -> Load.start_closed s ~depth:1 ~think:(Time.us 50) ~warmup:probe_warm ~window:probe_win);
        }
      in
      let sweep =
        List.map2
          (fun (rate, inputs) seeds ->
            let w = server_world seeds ~telemetry:Telemetry.disabled in
            let streams =
              List.filter_map Fun.id
                (List.mapi (fun i inp -> attach w ~tenant:(i + 1) ~bytes:1024 inp) (Array.to_list inputs))
            in
            (rate, w, streams))
          points point_seeds
      in
      let sweep_leg (_, w, streams) =
        {
          sim = w.sim;
          length = Time.add warm win;
          arm = (fun () -> List.iter (fun s -> Load.start_open s ~warmup:warm ~window:win) streams);
        }
      in
      let point_iops streams = List.fold_left (fun a s -> a +. Load.window_iops s ~window:win) 0.0 streams in
      let point_hist streams = merged (List.map stream_latency streams) in
      let probe_hist pick = match probe with [ r; w ] -> pick (r, w) | _ -> Hdr.create () in
      let sim_value = function
        | "read_avg_us" -> Hdr.mean_us (probe_hist (fun (r, _) -> r.Load.reads))
        | "read_p95_us" -> Hdr.percentile_us (probe_hist (fun (r, _) -> r.Load.reads)) 95.0
        | "write_avg_us" -> Hdr.mean_us (probe_hist (fun (_, w) -> w.Load.writes))
        | "write_p95_us" -> Hdr.percentile_us (probe_hist (fun (_, w) -> w.Load.writes)) 95.0
        | "iops_1core" -> (
          match List.rev sweep with (_, _, streams) :: _ -> point_iops streams | [] -> 0.0)
        | k -> invalid_arg ("read_sweep: no simulated value " ^ k)
      in
      let render () =
        rendered spans Spans.Report (fun () ->
            let t =
              Table.create ~title:"read_sweep: Table 2 probe and Fig 4 1-thread sweep"
                ~columns:[ "point"; "KIOPS"; "p50 us"; "p95 us"; "p99 us" ]
            in
            let add label iops h =
              Table.add_row t
                [
                  label;
                  Table.cell_f (iops /. 1e3);
                  Table.cell_f (Hdr.percentile_us h 50.0);
                  Table.cell_f (Hdr.percentile_us h 95.0);
                  Table.cell_f (Hdr.percentile_us h 99.0);
                ]
            in
            List.iter
              (fun (s : Load.stream) ->
                add "qd-1 probe" (Load.window_iops s ~window:probe_win) (stream_latency s))
              probe;
            List.iter
              (fun (rate, _, streams) ->
                add (Printf.sprintf "%.0fK offered" (rate /. 1e3)) (point_iops streams) (point_hist streams))
              sweep;
            Table.render t)
      in
      let all_streams = probe @ List.concat_map (fun (_, _, s) -> s) sweep in
      let result () =
        let issued, completed, failed = stream_totals all_streams in
        {
          rows =
            List.map Load.row probe
            @ [ server_row pw.server; sim_row pw.sim ]
            @ List.concat_map
                (fun (rate, w, streams) ->
                  Printf.sprintf "point %.0f" rate
                  :: (List.map Load.row streams @ [ server_row w.server; sim_row w.sim ]))
                sweep;
          issued;
          completed;
          failed;
          latency = merged (List.map stream_latency all_streams);
          slo = None;
          sim_value;
          extra =
            [ client_retries (List.filteri (fun i _ -> i = 0) probe @ List.concat_map (fun (_, _, s) -> s) sweep) ];
          checks =
            server_checks
              ((pw.server, probe) :: List.map (fun (_, w, streams) -> (w.server, streams)) sweep);
        }
      in
      {
        legs = List.map probe_leg probe @ List.map sweep_leg sweep;
        servers = Array.of_list (pw.server :: List.map (fun (_, w, _) -> w.server) sweep);
        tenants = [| 1; 2; 3; 4 |];
        rejected = !rejected;
        render;
        result;
      }
  in
  { name = "read_sweep"; bytes = 1024; read_ratio = 1.0; prepare }

(* ---------------- qos_mix ---------------- *)

(* Fig 5 scenarios 1 and 2 with the scheduler on: LC A (120K CBR reads),
   LC B (70K, then 45K, CBR at 80% reads), BE C and D (closed loop, depth
   256, 95% and 25% reads), 4KB, with telemetry armed as `reflex_sim
   trace` arms it.  Writes bring in token accounting, deficit, donation
   and the flash write buffer; the Chrome export and SLO audit close each
   scenario. *)
let qos_mix =
  let prepare ~seed ~scale =
    let prng = root ~seed ~salt:0x9055L in
    let warm = ms_scaled scale 30.0 and win = ms_scaled scale 40.0 in
    let length = Time.add warm win in
    let scenario b_rate =
      let p = Prng.split prng in
      let a = Load.open_loop p ~pacing:`Cbr ~mix:`Paced ~rate:120e3 ~read_ratio:1.0 ~length in
      let b = Load.open_loop p ~pacing:`Cbr ~mix:`Paced ~rate:b_rate ~read_ratio:0.8 ~length in
      let c = Load.closed_loop p ~read_ratio:0.95 in
      let d = Load.closed_loop p ~read_ratio:0.25 in
      (a, b, c, d, world_seeds prng)
    in
    let scenarios = [ scenario 70e3; scenario 45e3 ] in
    fun spans ->
      let rejected = ref 0 in
      let build (a, b, c, d, seeds) =
        let w = server_world seeds ~telemetry:(Telemetry.create ()) in
        let attach ~tenant ~slo ~slo_ns inp =
          match register w spans ~tenant ~slo () with
          | Some cl -> Some (Load.stream w.sim spans cl ~tenant ~bytes:4096 ~slo_ns inp)
          | None ->
            incr rejected;
            None
        in
        let lc iops read_pct = lc_slo ~latency_us:500 ~iops ~read_pct in
        let slo_ns = Time.us 500 in
        (* Registered in tenant order (a list literal evaluates right to left). *)
        let sa = attach ~tenant:1 ~slo:(lc 120_000 100) ~slo_ns a in
        let sb = attach ~tenant:2 ~slo:(lc 70_000 80) ~slo_ns b in
        let sc = attach ~tenant:3 ~slo:(be_slo ~read_pct:95) ~slo_ns:Time.zero c in
        let sd = attach ~tenant:4 ~slo:(be_slo ~read_pct:25) ~slo_ns:Time.zero d in
        (w, List.filter_map Fun.id [ sa; sb; sc; sd ])
      in
      let worlds = List.map build scenarios in
      let leg (w, streams) =
        {
          sim = w.sim;
          length;
          arm =
            (fun () ->
              List.iter
                (fun (s : Load.stream) ->
                  if Array.length s.inp.due > 0 then Load.start_open s ~warmup:warm ~window:win
                  else Load.start_closed s ~depth:256 ~think:Time.zero ~warmup:warm ~window:win)
                streams);
        }
      in
      (* The references are scenario 1's tenants A..D, ids 1..4. *)
      let sim_value key =
        let tenant =
          match key with
          | "a_iops" -> 1
          | "b_iops" -> 2
          | "c_iops" -> 3
          | "d_iops" -> 4
          | k -> invalid_arg ("qos_mix: no simulated value " ^ k)
        in
        match worlds with
        | (_, streams) :: _ -> (
          match List.find_opt (fun (s : Load.stream) -> s.tenant = tenant) streams with
          | Some s -> Load.window_iops s ~window:win
          | None -> 0.0)
        | [] -> 0.0
      in
      let render () =
        let exports =
          List.map
            (fun (w, _) ->
              rendered spans Spans.Export (fun () ->
                  let trace = Reflex_telemetry.Trace_export.to_chrome_json w.telemetry in
                  let audit = Reflex_telemetry.Slo_audit.report w.telemetry in
                  Digest.to_hex (Digest.string trace) ^ "\n" ^ audit))
            worlds
        in
        let table =
          rendered spans Spans.Report (fun () ->
              let t =
                Table.create ~title:"qos_mix: Fig 5 scenarios 1 and 2, scheduler on"
                  ~columns:[ "scenario"; "tenant"; "KIOPS"; "p95 read us"; "SLO met %" ]
              in
              List.iteri
                (fun i (_, streams) ->
                  List.iter
                    (fun (s : Load.stream) ->
                      Table.add_row t
                        [
                          Table.cell_i (i + 1);
                          Table.cell_i s.tenant;
                          Table.cell_f (Load.window_iops s ~window:win /. 1e3);
                          Table.cell_f (Hdr.percentile_us s.reads 95.0);
                          (if Load.lc s then
                             Table.cell_f (100.0 *. float_of_int s.slo_met /. float_of_int (max 1 s.issued))
                           else "-");
                        ])
                    streams)
                worlds;
              Table.render t)
        in
        String.concat "\n" (table :: exports)
      in
      let all_streams = List.concat_map snd worlds in
      let telemetries = List.map (fun (w, _) -> w.telemetry) worlds in
      let result () =
        let issued, completed, failed = stream_totals all_streams in
        let tsum f = float_of_int (sum f telemetries) in
        {
          rows =
            List.concat_map
              (fun (w, streams) ->
                List.map Load.row streams @ [ server_row w.server; sim_row w.sim ])
              worlds;
          issued;
          completed;
          failed;
          latency = merged (List.map stream_latency all_streams);
          slo = Some (lc_slo_counts all_streams);
          sim_value;
          extra =
            [
              client_retries all_streams;
              ("telemetry.spans_recorded", tsum Telemetry.spans_recorded, "count");
              ("telemetry.spans_dropped", tsum Telemetry.spans_dropped, "count");
            ];
          checks = server_checks (List.map (fun (w, s) -> (w.server, s)) worlds);
        }
      in
      {
        legs = List.map leg worlds;
        servers = Array.of_list (List.map (fun (w, _) -> w.server) worlds);
        tenants = [| 1; 2; 3; 4 |];
        rejected = !rejected;
        render;
        result;
      }
  in
  { name = "qos_mix"; bytes = 4096; read_ratio = 0.8; prepare }

(* ---------------- tenant_scale ---------------- *)

(* Fig 6b at one core: 2500 LC tenants, each 100 IOPS of CBR 1KB reads,
   over 16 client hosts.  Scheduler rounds and admission are O(tenants),
   and setup registers every tenant. *)
let tenant_scale =
  let prepare ~seed ~scale =
    let prng = root ~seed ~salt:0x7E4AL in
    let tenants = max 16 (int_of_float (2500.0 *. Float.min 1.0 scale)) in
    let warm = ms_scaled scale 10.0 and win = ms_scaled scale 30.0 in
    let length = Time.add warm win in
    let inputs =
      Array.init tenants (fun _ ->
          Load.open_loop prng ~pacing:`Cbr ~mix:`Paced ~rate:100.0 ~read_ratio:1.0 ~length)
    in
    let seeds = world_seeds prng in
    fun spans ->
      let w = server_world seeds ~telemetry:Telemetry.disabled in
      let hosts =
        Array.init 16 (fun i ->
            Fabric.add_host w.fabric ~name:(Printf.sprintf "loadgen-%d" i) ~stack:Stack_model.ix_client)
      in
      let slo = lc_slo ~latency_us:2000 ~iops:100 ~read_pct:100 in
      let rejected = ref 0 in
      (* One shared pair of histograms: per-tenant ones would make the
         benchmark's own memory dwarf the program's. *)
      let reads = Hdr.create () and writes = Hdr.create () in
      let streams =
        List.filter_map Fun.id
          (List.init tenants (fun i ->
               let tenant = i + 1 in
               match register w spans ~tenant ~slo ~host:hosts.(i mod 16) () with
               | Some c ->
                 Some
                   (Load.stream w.sim spans c ~tenant ~bytes:1024 ~slo_ns:(Time.us 2000) ~reads ~writes
                      inputs.(i))
               | None ->
                 incr rejected;
                 None))
      in
      let achieved () = List.fold_left (fun a s -> a +. Load.window_iops s ~window:win) 0.0 streams in
      let sim_value = function
        | "iops_2500" -> achieved ()
        | k -> invalid_arg ("tenant_scale: no simulated value " ^ k)
      in
      let render () =
        rendered spans Spans.Report (fun () ->
            let served =
              List.map (fun (s : Load.stream) -> Server.tenant_completed w.server ~tenant:s.tenant) streams
            in
            let t =
              Table.create ~title:"tenant_scale: Fig 6b, one core"
                ~columns:[ "tenants"; "KIOPS"; "p50 us"; "p95 us"; "p99 us"; "served min..max" ]
            in
            Table.add_row t
              [
                Table.cell_i (List.length streams);
                Table.cell_f (achieved () /. 1e3);
                Table.cell_f (Hdr.percentile_us reads 50.0);
                Table.cell_f (Hdr.percentile_us reads 95.0);
                Table.cell_f (Hdr.percentile_us reads 99.0);
                Printf.sprintf "%d..%d" (List.fold_left min max_int served) (List.fold_left max 0 served);
              ];
            Table.render t)
      in
      let result () =
        let issued, completed, failed = stream_totals streams in
        {
          rows =
            List.map Load.counts_row streams
            @ [ "reads " ^ Load.hist_row reads; server_row w.server; sim_row w.sim ];
          issued;
          completed;
          failed;
          latency = merged [ reads; writes ];
          slo = Some (lc_slo_counts streams);
          sim_value;
          extra = [ client_retries streams ];
          checks = server_checks [ (w.server, streams) ];
        }
      in
      {
        legs =
          [
            {
              sim = w.sim;
              length;
              arm = (fun () -> List.iter (fun s -> Load.start_open s ~warmup:warm ~window:win) streams);
            };
          ];
        servers = [| w.server |];
        tenants = Array.init tenants (fun i -> i + 1);
        rejected = !rejected;
        render;
        result;
      }
  in
  { name = "tenant_scale"; bytes = 1024; read_ratio = 1.0; prepare }

(* ---------------- rack_po2c ---------------- *)

(* A rack of 8 one-core servers behind the power-of-two-choices balancer:
   400 LC tenants with 3 replicas and Zipf-skewed CBR read rates whose
   hot ranks the seed assigns, probes every 250us feeding a skew detector
   that migrates the hottest tenant off a hot server, and the rack tracer
   armed throughout.  The paper has no rack experiment, so this workload
   is unvalidated. *)
let rack_servers = 8
let probe_period = Time.us 250
let rack_slo_us = 300

type rack_stream = {
  r_tenant : int;
  r_inp : Load.inputs;
  mutable r_issued : int;
  mutable r_completed : int;
  mutable r_failed : int;
}

let rack_po2c =
  let prepare ~seed ~scale =
    let prng = root ~seed ~salt:0x2AC4L in
    let tenants = max 24 (int_of_float (400.0 *. Float.min 1.0 scale)) in
    let warm = ms_scaled scale 4.0 and win = ms_scaled scale 26.0 in
    let length = Time.add warm win in
    let theta = 0.9 in
    let weights = Array.init tenants (fun i -> float_of_int (i + 1) ** -.theta) in
    Prng.shuffle prng weights;
    let total_w = Array.fold_left ( +. ) 0.0 weights in
    let rates = Array.map (fun x -> 40e3 *. float_of_int rack_servers *. x /. total_w) weights in
    let inputs =
      Array.map
        (fun rate -> Load.open_loop prng ~pacing:`Cbr ~mix:`Paced ~rate ~read_ratio:1.0 ~length)
        rates
    in
    let sim_seed = seed_of prng in
    let rack_seed = seed_of prng in
    fun spans ->
      let sim = Sim.create ~seed:sim_seed () in
      let rack = Rack.create sim ~n_servers:rack_servers ~policy:Reflex_rack.Policy.Po2c ~seed:rack_seed () in
      let obs = Rack_obs.create rack in
      let rejected = ref 0 in
      let streams =
        List.filter_map Fun.id
          (List.init tenants (fun i ->
               let tenant = i + 1 in
               let slo =
                 lc_slo ~latency_us:rack_slo_us ~iops:(int_of_float (ceil rates.(i))) ~read_pct:100
               in
               let sp = Spans.enter spans Spans.Register ~tenant ~req:(-1) in
               let placed = Rack.add_tenant rack ~id:tenant ~slo ~replicas:3 in
               Spans.leave spans sp;
               match placed with
               | `Placed _ ->
                 Some
                   { r_tenant = tenant; r_inp = inputs.(i); r_issued = 0; r_completed = 0; r_failed = 0 }
               | `Rejected ->
                 incr rejected;
                 None))
      in
      let skew = Reflex_rack.Skew.create ~cooldown:(Time.us 500) () in
      let h0 = ref (Hdr.create ()) and h1 = ref (Hdr.create ()) in
      let probe () =
        let sp = Spans.enter spans Spans.Probe ~tenant:(-1) ~req:(-1) in
        Rack.sample_probes rack;
        (match Reflex_rack.Skew.observe skew ~now:(Sim.now sim) ~depths:(Rack.sampled_depths rack) with
        | Some hot -> (
          match Rack.hottest_tenant_on rack ~server:hot with
          | Some victim -> ignore (Rack.rebalance rack ~tenant:victim)
          | None -> ())
        | None -> ());
        Spans.leave spans sp
      in
      let start s t0 =
        let on_complete st =
          s.r_completed <- s.r_completed + 1;
          if st <> Message.Ok then s.r_failed <- s.r_failed + 1
        in
        Load.replay sim ~t0 s.r_inp.due (fun i ->
            s.r_issued <- s.r_issued + 1;
            let lba = s.r_inp.lba.(i) in
            if not spans.Spans.on then Rack.dispatch_read rack ~on_complete ~tenant:s.r_tenant ~lba ~len:1024 ()
            else begin
              let sp = Spans.enter spans Spans.Dispatch ~tenant:s.r_tenant ~req:i in
              let rq = Spans.sim_open spans ~start:(Sim.now sim) ~tenant:s.r_tenant ~req:i in
              Rack.dispatch_read rack
                ~on_complete:(fun st ->
                  Spans.sim_close spans rq ~stop:(Sim.now sim);
                  on_complete st)
                ~tenant:s.r_tenant ~lba ~len:1024 ();
              Spans.leave spans sp
            end)
      in
      let arm () =
        let t0 = Sim.now sim in
        Sim.every sim ~every:probe_period ~until:(Time.add t0 length) (fun _ -> probe ());
        ignore (Sim.at sim (Time.add t0 warm) (fun () -> h0 := Hdr.copy (Rack.latency_hist rack)));
        ignore
          (Sim.at sim (Time.add t0 length) (fun () -> h1 := Hdr.copy (Rack.latency_hist rack)));
        List.iter (fun s -> start s t0) streams
      in
      let window_hist () = Hdr.diff !h1 ~since:!h0 in
      let render () =
        let rollup =
          rendered spans Spans.Rollup (fun () ->
              let now = Sim.now sim in
              let server_snaps = Rack_obs.snapshot_servers obs ~now ~window:length in
              let rack_snap = Rack_obs.snapshot_rack obs ~now ~window:length in
              let stitch = Rack_rollup.stitch ~server_snaps ~rack_snap in
              let trace = Rack_rollup.chrome_trace ~server_snaps ~rack_snap in
              String.concat "\n"
                [
                  Digest.to_hex (Digest.string stitch);
                  Digest.to_hex (Digest.string trace);
                  Rack_obs.attribution obs;
                ])
        in
        let table =
          rendered spans Spans.Report (fun () ->
              let h = window_hist () in
              let t =
                Table.create ~title:"rack_po2c: 8 servers, po2c, 3 replicas (unvalidated)"
                  ~columns:[ "completed"; "p50 us"; "p95 us"; "p99 us"; "SLO met %"; "migrations" ]
              in
              Table.add_row t
                [
                  Table.cell_i (Rack.completed rack);
                  Table.cell_f (Hdr.percentile_us h 50.0);
                  Table.cell_f (Hdr.percentile_us h 95.0);
                  Table.cell_f (Hdr.percentile_us h 99.0);
                  Table.cell_f
                    (100.0 *. float_of_int (Rack.slo_ok rack) /. float_of_int (max 1 (Rack.lc_dispatched rack)));
                  Table.cell_i (Rack.migrations rack);
                ];
              Table.render t)
        in
        table ^ rollup
      in
      let servers = Array.init rack_servers (Rack.server rack) in
      let result () =
        let dispatched = Rack.dispatched rack in
        let total = Array.fold_left ( + ) 0 dispatched in
        let hottest = Array.fold_left max 0 dispatched in
        let rings = Rack_obs.rack_ring obs :: List.init rack_servers (Rack_obs.server_ring obs) in
        let issued = sum (fun s -> s.r_issued) streams in
        let completed = sum (fun s -> s.r_completed) streams in
        let per_tenant srv = Array.fold_left (fun a t -> a + Server.tenant_completed srv ~tenant:t) 0 in
        {
          rows =
            List.map
              (fun s ->
                Printf.sprintf "tenant=%d issued=%d completed=%d failed=%d" s.r_tenant s.r_issued
                  s.r_completed s.r_failed)
              streams
            @ [
                Printf.sprintf "rack completed=%d errors=%d slo_ok=%d slo_total=%d lc=%d migrations=%d"
                  (Rack.completed rack) (Rack.errors rack) (Rack.slo_ok rack) (Rack.slo_total rack)
                  (Rack.lc_dispatched rack) (Rack.migrations rack);
                "dispatched " ^ String.concat "," (Array.to_list (Array.map string_of_int dispatched));
                "window " ^ Load.hist_row (window_hist ());
                Printf.sprintf "rack_obs traced=%d untiled=%d fallbacks=%d overflow=%d" (Rack_obs.traced obs)
                  (Rack_obs.untiled obs) (Rack_obs.fallbacks obs) (Rack_obs.slot_overflow obs);
                sim_row sim;
              ]
            @ Array.to_list (Array.map server_row servers);
          issued;
          completed;
          failed = sum (fun s -> s.r_failed) streams;
          latency = window_hist ();
          slo = Some (Rack.slo_ok rack, Rack.lc_dispatched rack);
          sim_value = (fun k -> invalid_arg ("rack_po2c: unvalidated, no simulated value " ^ k));
          extra =
            [
              ( "rack.imbalance",
                (if total = 0 then 1.0
                 else float_of_int hottest *. float_of_int rack_servers /. float_of_int total),
                "ratio" );
              ("rack.migrations", float_of_int (Rack.migrations rack), "count");
              ("rack_obs.traced", float_of_int (Rack_obs.traced obs), "count");
              ("rack_obs.slot_overflow", float_of_int (Rack_obs.slot_overflow obs), "count");
              ("obs.flight_records", float_of_int (sum Reflex_obs.Flight.total rings), "count");
            ];
          checks =
            [
              ("every issued request completed or failed by drain", completed = issued && Rack.completed rack = issued);
              ( "per-tenant completions sum to Server.requests_completed",
                let ids = Array.of_list (List.map (fun s -> s.r_tenant) streams) in
                Array.for_all (fun srv -> per_tenant srv ids = Server.requests_completed srv) servers
                && Array.fold_left (fun a srv -> a + Server.requests_completed srv) 0 servers = completed );
              ("Rack_obs.untiled = 0", Rack_obs.untiled obs = 0);
            ];
        }
      in
      {
        legs = [ { sim; length; arm } ];
        servers;
        tenants = Array.init tenants (fun i -> i + 1);
        rejected = !rejected;
        render;
        result;
      }
  in
  { name = "rack_po2c"; bytes = 1024; read_ratio = 1.0; prepare }

let all = [ read_sweep; qos_mix; tenant_scale; rack_po2c ]
let find name = List.find_opt (fun w -> w.name = name) all
