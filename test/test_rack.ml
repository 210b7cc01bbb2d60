(* Tests for the rack-scale scheduler: link latency table, balancing
   policies (unit + qcheck invariants), the skew detector, the rack
   request/migration path on a small world, and a small end-to-end
   bakeoff checked for byte-identical determinism across same-seed
   reruns and serial vs two-domain runs. *)

open Reflex_engine
open Reflex_rack
module Common = Reflex_experiments.Common
module Rack_exp = Reflex_experiments.Rack_exp
module Identity = Reflex_experiments.Identity
module Global_control = Reflex_core.Global_control

(* ------------------------------------------------------------------ *)
(* Link                                                               *)
(* ------------------------------------------------------------------ *)

let test_link_table () =
  let l = Link.create ~n:8 () in
  Alcotest.(check int) "ports" 8 (Link.n_ports l);
  Alcotest.(check bool) "loopback is free" true
    (Time.equal (Link.latency l ~src:3 ~dst:3) Time.zero);
  for i = 0 to 7 do
    Alcotest.(check bool) "ingress covers the switch" true
      Time.(Link.ingress l i >= Time.us 1);
    Alcotest.(check bool) "port delay below base+spread" true
      Time.(Link.port_delay l i < Time.add (Time.ns 300) (Time.ns 600))
  done;
  (* src->dst is symmetric (port src + switch + port dst). *)
  Alcotest.(check bool) "symmetric" true
    (Time.equal (Link.latency l ~src:1 ~dst:5) (Link.latency l ~src:5 ~dst:1));
  (* Same construction, same table: no hidden PRNG. *)
  let l' = Link.create ~n:8 () in
  for i = 0 to 7 do
    Alcotest.(check bool) "deterministic" true
      (Time.equal (Link.port_delay l i) (Link.port_delay l' i))
  done

(* ------------------------------------------------------------------ *)
(* Policy                                                             *)
(* ------------------------------------------------------------------ *)

let mk kind = Policy.create kind ~prng:(Prng.create 7L)

let test_policy_names () =
  let idx = List.map Policy.kind_index Policy.all in
  Alcotest.(check bool) "indices distinct" true
    (List.length (List.sort_uniq compare idx) = List.length idx)

let test_policy_single_candidate () =
  (* One candidate: every policy returns it without consulting load. *)
  let sampled = [| 9; 9; 9; 9 |] and exact = [| 9; 9; 9; 9 |] in
  List.iter
    (fun k ->
      let p = mk k in
      Alcotest.(check int)
        (Policy.kind_name k ^ " single")
        2
        (Policy.pick p ~candidates:[| 2 |] ~sampled ~exact))
    Policy.all

let test_policy_jsq_oracle_argmin () =
  let sampled = [| 5; 1; 7; 3 |] and exact = [| 0; 9; 9; 9 |] in
  let cands = [| 0; 1; 2; 3 |] in
  Alcotest.(check int) "jsq takes sampled argmin" 1
    (Policy.pick (mk Policy.Jsq) ~candidates:cands ~sampled ~exact);
  Alcotest.(check int) "oracle takes exact argmin" 0
    (Policy.pick (mk Policy.Oracle) ~candidates:cands ~sampled ~exact);
  (* Ties break toward the lowest server index. *)
  let flat = [| 4; 4; 4; 4 |] in
  Alcotest.(check int) "jsq tie -> lowest" 0
    (Policy.pick (mk Policy.Jsq) ~candidates:[| 3; 0; 2 |] ~sampled:flat ~exact);
  Alcotest.(check int) "oracle tie -> lowest" 0
    (Policy.pick (mk Policy.Oracle) ~candidates:[| 3; 0; 2 |] ~sampled ~exact:flat)

let test_policy_round_robin_cycles () =
  let p = mk Policy.Round_robin in
  let zeros = Array.make 10 0 in
  let picks =
    List.init 6 (fun _ -> Policy.pick p ~candidates:[| 4; 2; 9 |] ~sampled:zeros ~exact:zeros)
  in
  Alcotest.(check (list int)) "cursor cycles candidate positions" [ 4; 2; 9; 4; 2; 9 ] picks

let test_policy_deterministic_stream () =
  (* Same seed, same candidate sequence => same picks (Random, Po2c). *)
  let run kind =
    let p = Policy.create kind ~prng:(Prng.create 99L) in
    let sampled = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
    List.init 32 (fun i ->
        let c = [| i mod 8; (i + 3) mod 8; (i + 5) mod 8 |] in
        Policy.pick p ~candidates:c ~sampled ~exact:sampled)
  in
  List.iter
    (fun k ->
      Alcotest.(check (list int)) (Policy.kind_name k ^ " replays") (run k) (run k))
    [ Policy.Random; Policy.Po2c ]

(* QCheck: JSQ (argmin over all candidates) never lands on a strictly
   longer sampled queue than po2c's better-of-two sample. *)
let qcheck_jsq_beats_po2c_sample =
  QCheck.Test.make ~name:"jsq pick <= po2c pick on sampled depth" ~count:500
    QCheck.(pair int64 (list_of_size (Gen.int_range 1 12) (int_range 0 100)))
    (fun (seed, depths) ->
      QCheck.assume (depths <> []);
      let sampled = Array.of_list depths in
      let n = Array.length sampled in
      let candidates = Array.init n (fun i -> i) in
      let jsq = Policy.create Policy.Jsq ~prng:(Prng.create seed) in
      let po2c = Policy.create Policy.Po2c ~prng:(Prng.create seed) in
      let j = Policy.pick jsq ~candidates ~sampled ~exact:sampled in
      let p = Policy.pick po2c ~candidates ~sampled ~exact:sampled in
      sampled.(j) <= sampled.(p))

(* QCheck: every policy returns a member of its candidate set. *)
let qcheck_pick_in_candidates =
  QCheck.Test.make ~name:"picks stay inside the candidate set" ~count:300
    QCheck.(pair int64 (list_of_size (Gen.int_range 1 8) (int_range 0 15)))
    (fun (seed, cand_l) ->
      QCheck.assume (cand_l <> []);
      let candidates = Array.of_list (List.sort_uniq compare cand_l) in
      let sampled = Array.make 16 0 in
      Array.iteri (fun i _ -> sampled.(i) <- i * 3 mod 7) sampled;
      List.for_all
        (fun k ->
          let p = Policy.create k ~prng:(Prng.create seed) in
          let c = Policy.pick p ~candidates ~sampled ~exact:sampled in
          Array.exists (fun x -> x = c) candidates)
        Policy.all)

(* ------------------------------------------------------------------ *)
(* Skew                                                               *)
(* ------------------------------------------------------------------ *)

let test_skew_fires_on_persistent_outlier () =
  let sk = Skew.create ~cooldown:Time.zero () in
  let fired = ref None in
  for tick = 1 to 20 do
    let now = Time.of_float_us (float_of_int tick *. 250.0) in
    match Skew.observe sk ~now ~depths:[| 2; 40; 2; 2; 2; 2 |] with
    | Some s when !fired = None -> fired := Some s
    | _ -> ()
  done;
  Alcotest.(check (option int)) "names the hot server" (Some 1) !fired;
  Alcotest.(check bool) "imbalance ratio is high" true (Skew.imbalance sk > 2.0)

let test_skew_quiet_on_balance () =
  let sk = Skew.create ~cooldown:Time.zero () in
  for tick = 1 to 20 do
    let now = Time.of_float_us (float_of_int tick *. 250.0) in
    Alcotest.(check (option int)) "balanced rack never fires" None
      (Skew.observe sk ~now ~depths:[| 3; 4; 3; 4; 3; 4 |])
  done;
  Alcotest.(check int) "no firings" 0 (Skew.fires sk)

let test_skew_cooldown () =
  let sk = Skew.create ~cooldown:(Time.ms 100) () in
  for tick = 1 to 20 do
    let now = Time.of_float_us (float_of_int tick *. 250.0) in
    ignore (Skew.observe sk ~now ~depths:[| 2; 40; 2; 2; 2; 2 |])
  done;
  Alcotest.(check int) "cooldown caps firings" 1 (Skew.fires sk)

(* ------------------------------------------------------------------ *)
(* Rack world (small)                                                 *)
(* ------------------------------------------------------------------ *)

let small_rack ?policy ?telemetry () =
  let sim = Sim.create ~seed:11L () in
  let rack = Rack.create sim ~n_servers:4 ?policy ~seed:0x5EEDL ?telemetry () in
  (sim, rack)

let lc = Common.lc_slo ~latency_us:300 ~iops:1000 ~read_pct:100

let test_rack_placement_distinct_replicas () =
  let _sim, rack = small_rack () in
  (match Rack.add_tenant rack ~id:1 ~slo:lc ~replicas:3 with
  | `Rejected -> Alcotest.fail "placement rejected"
  | `Placed srvs ->
    Alcotest.(check int) "three replicas" 3 (Array.length srvs);
    let uniq = List.sort_uniq compare (Array.to_list srvs) in
    Alcotest.(check int) "replicas on distinct servers" 3 (List.length uniq);
    Alcotest.(check int) "home is slot 0" (Rack.tenant_home rack ~tenant:1) srvs.(0));
  (* More replicas than servers: keeps what could register. *)
  match Rack.add_tenant rack ~id:2 ~slo:lc ~replicas:9 with
  | `Rejected -> Alcotest.fail "placement rejected"
  | `Placed srvs ->
    Alcotest.(check bool) "capped at rack size" true (Array.length srvs <= 4)

let test_rack_global_control_order () =
  (* Global_control.servers must list the rack in insertion (index)
     order — placement scan order is part of the determinism story. *)
  let _sim, rack = small_rack () in
  let names = List.map fst (Global_control.servers (Rack.control rack)) in
  Alcotest.(check (list string)) "insertion order"
    [ "rack-00"; "rack-01"; "rack-02"; "rack-03" ]
    names;
  let probes = Global_control.probes (Rack.control rack) in
  Alcotest.(check (list string)) "probes share the order"
    names
    (List.map (fun p -> p.Global_control.probe_name) probes)

let test_rack_place_excluding_set () =
  let _sim, rack = small_rack () in
  let gc = Rack.control rack in
  let slo = Reflex_qos.Slo.latency_critical ~latency_us:300 ~iops:100.0 ~read_pct:100 in
  (match
     Global_control.place_excluding_set gc ~slo
       ~excluding:[ "rack-00"; "rack-01"; "rack-02" ]
   with
  | None -> Alcotest.fail "no placement"
  | Some p -> Alcotest.(check string) "only candidate left" "rack-03" p.Global_control.server_name);
  match
    Global_control.place_excluding_set gc ~slo
      ~excluding:[ "rack-00"; "rack-01"; "rack-02"; "rack-03" ]
  with
  | None -> ()
  | Some _ -> Alcotest.fail "placement ignored the exclusion set"

let run_some_reads sim rack ~tenant ~n =
  let prng = Prng.create 5L in
  for _ = 1 to n do
    Rack.dispatch_read rack ~tenant ~lba:(Int64.of_int (Prng.int prng 4096 * 8)) ~len:1024 ();
    ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.us 400)) sim)
  done

let test_rack_dispatch_completes () =
  let telemetry = Reflex_telemetry.Telemetry.create () in
  let sim, rack = small_rack ~telemetry () in
  (match Rack.add_tenant rack ~id:1 ~slo:lc ~replicas:2 with
  | `Rejected -> Alcotest.fail "placement rejected"
  | `Placed _ -> ());
  run_some_reads sim rack ~tenant:1 ~n:20;
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 2)) sim);
  Alcotest.(check int) "all reads completed" 20 (Rack.completed rack);
  Alcotest.(check int) "no errors" 0 (Rack.errors rack);
  Alcotest.(check int) "all were LC dispatches" 20 (Rack.lc_dispatched rack);
  Alcotest.(check int) "slo audited" 20 (Rack.slo_total rack);
  (* The rack-tracked in-flight count per server, as its gauge exports it. *)
  for i = 0 to Rack.n_servers rack - 1 do
    let name = Printf.sprintf "rack/s%02d/inflight" i in
    match Reflex_telemetry.Telemetry.find_metric telemetry name with
    | Some (`Gauge v) -> Alcotest.(check (float 0.0)) ("inflight drained: " ^ name) 0.0 v
    | _ -> Alcotest.fail ("missing gauge " ^ name)
  done

let test_rack_migrate_noop_idempotent () =
  let sim, rack = small_rack () in
  (match Rack.add_tenant rack ~id:1 ~slo:lc ~replicas:1 with
  | `Rejected -> Alcotest.fail "placement rejected"
  | `Placed _ -> ());
  let home = Rack.tenant_home rack ~tenant:1 in
  let replicas = Rack.tenant_replicas rack ~tenant:1 in
  (* Migrating to the current home is a no-op, any number of times. *)
  for _ = 1 to 3 do
    match Rack.migrate rack ~tenant:1 ~dst:home with
    | `Noop -> ()
    | _ -> Alcotest.fail "migrate to current home must be `Noop"
  done;
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 1)) sim);
  Alcotest.(check int) "home unchanged" home (Rack.tenant_home rack ~tenant:1);
  Alcotest.(check bool) "replica set unchanged" true
    (Rack.tenant_replicas rack ~tenant:1 = replicas);
  Alcotest.(check int) "no migrations counted" 0 (Rack.migrations rack)

let test_rack_migrate_moves_home () =
  let sim, rack = small_rack () in
  (match Rack.add_tenant rack ~id:1 ~slo:lc ~replicas:1 with
  | `Rejected -> Alcotest.fail "placement rejected"
  | `Placed _ -> ());
  let home = Rack.tenant_home rack ~tenant:1 in
  let dst = (home + 1) mod 4 in
  (match Rack.migrate rack ~tenant:1 ~dst with
  | `Started -> ()
  | `Noop | `Flipped | `No_capacity -> Alcotest.fail "expected `Started");
  (* Let the destination registration land and the old side drain. *)
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 2)) sim);
  Alcotest.(check int) "home flipped" dst (Rack.tenant_home rack ~tenant:1);
  Alcotest.(check int) "one migration" 1 (Rack.migrations rack);
  Alcotest.(check bool) "old home left the replica set" true
    (not (Array.exists (fun s -> s = home) (Rack.tenant_replicas rack ~tenant:1)));
  (* The tenant still serves reads from its new home. *)
  run_some_reads sim rack ~tenant:1 ~n:5;
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 2)) sim);
  Alcotest.(check int) "reads after migration" 5 (Rack.completed rack);
  Alcotest.(check int) "no errors" 0 (Rack.errors rack)

let test_rack_migrate_flip_within_replicas () =
  let sim, rack = small_rack () in
  (match Rack.add_tenant rack ~id:1 ~slo:lc ~replicas:2 with
  | `Rejected -> Alcotest.fail "placement rejected"
  | `Placed _ -> ());
  let rs = Rack.tenant_replicas rack ~tenant:1 in
  Alcotest.(check int) "two replicas" 2 (Array.length rs);
  let other = rs.(1) in
  (match Rack.migrate rack ~tenant:1 ~dst:other with
  | `Flipped -> ()
  | _ -> Alcotest.fail "migrate inside the replica set must be `Flipped");
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 1)) sim);
  Alcotest.(check int) "home flipped to the replica" other (Rack.tenant_home rack ~tenant:1);
  Alcotest.(check int) "counted" 1 (Rack.migrations rack)

let test_rack_rebalance_leaves_replica_set () =
  let sim, rack = small_rack () in
  (match Rack.add_tenant rack ~id:1 ~slo:lc ~replicas:2 with
  | `Rejected -> Alcotest.fail "placement rejected"
  | `Placed _ -> ());
  let before = Array.to_list (Rack.tenant_replicas rack ~tenant:1) in
  (match Rack.rebalance rack ~tenant:1 with
  | `Started -> ()
  | `No_target -> Alcotest.fail "rebalance found no target");
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 2)) sim);
  Alcotest.(check bool) "new home is outside the old replica set" true
    (not (List.mem (Rack.tenant_home rack ~tenant:1) before))

let test_rack_hottest_tenant () =
  let sim, rack = small_rack () in
  (match Rack.add_tenant_on rack ~id:1 ~slo:lc ~server:2 with
  | `Rejected -> Alcotest.fail "pin rejected"
  | `Placed _ -> ());
  (match Rack.add_tenant_on rack ~id:2 ~slo:lc ~server:2 with
  | `Rejected -> Alcotest.fail "pin rejected"
  | `Placed _ -> ());
  Alcotest.(check (option int)) "empty server" None (Rack.hottest_tenant_on rack ~server:3);
  run_some_reads sim rack ~tenant:2 ~n:8;
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 2)) sim);
  Alcotest.(check (option int)) "most-dispatching tenant wins" (Some 2)
    (Rack.hottest_tenant_on rack ~server:2)

(* ------------------------------------------------------------------ *)
(* Small end-to-end bakeoff: determinism + oracle supremacy           *)
(* ------------------------------------------------------------------ *)

let test_exp_small_result () =
  let r = Lazy.force Scenarios.rack_small in
  Alcotest.(check int) "all policies reported" (List.length Policy.all)
    (List.length r.Rack_exp.r_rows);
  Alcotest.(check bool) "tenants placed" true (r.Rack_exp.r_tenants > 100);
  List.iter
    (fun p ->
      Alcotest.(check bool) "requests flowed" true (p.Rack_exp.p_completed > 0);
      Alcotest.(check bool) "p99 sane" true
        (p.Rack_exp.p_p99_us > 0.0 && p.Rack_exp.p_p99_us < 10_000.0))
    r.Rack_exp.r_rows;
  Scenarios.check_rows (Rack_exp.checks r)
    [
      "po2c beats random on p99";
      "oracle's SLO compliance is the best";
      "skew detector migrated tenants";
      "migration reduced dispatch imbalance";
    ];
  Alcotest.(check bool) "all checks" true (Identity.all_ok (Rack_exp.checks r))

let test_exp_serial_vs_jobs2 () =
  let base = Rack_exp.render_result (Lazy.force Scenarios.rack_small) in
  let par = Rack_exp.render_result (Rack_exp.run ~scale:Scenarios.rack_small_scale ~jobs:2 ()) in
  Alcotest.(check string) "serial vs --jobs 2 byte-identical" base par

let test_exp_same_seed_rerun () =
  let base = Rack_exp.render_result (Lazy.force Scenarios.rack_small) in
  let again = Rack_exp.render_result (Rack_exp.run ~scale:Scenarios.rack_small_scale ~jobs:1 ()) in
  Alcotest.(check string) "same seed, same bytes" base again


let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "link",
      [
        Alcotest.test_case "latency table" `Quick test_link_table;
      ] );
    ( "policy",
      [
        Alcotest.test_case "names" `Quick test_policy_names;
        Alcotest.test_case "single candidate" `Quick test_policy_single_candidate;
        Alcotest.test_case "jsq/oracle argmin + ties" `Quick test_policy_jsq_oracle_argmin;
        Alcotest.test_case "round-robin cycles" `Quick test_policy_round_robin_cycles;
        Alcotest.test_case "seeded streams replay" `Quick test_policy_deterministic_stream;
        qcheck qcheck_jsq_beats_po2c_sample;
        qcheck qcheck_pick_in_candidates;
      ] );
    ( "skew",
      [
        Alcotest.test_case "fires on persistent outlier" `Quick test_skew_fires_on_persistent_outlier;
        Alcotest.test_case "quiet on balance" `Quick test_skew_quiet_on_balance;
        Alcotest.test_case "cooldown" `Quick test_skew_cooldown;
      ] );
    ( "rack",
      [
        Alcotest.test_case "placement: distinct replicas" `Quick test_rack_placement_distinct_replicas;
        Alcotest.test_case "global control order" `Quick test_rack_global_control_order;
        Alcotest.test_case "place_excluding_set" `Quick test_rack_place_excluding_set;
        Alcotest.test_case "dispatch completes" `Quick test_rack_dispatch_completes;
        Alcotest.test_case "migrate: noop idempotent" `Quick test_rack_migrate_noop_idempotent;
        Alcotest.test_case "migrate: moves home" `Quick test_rack_migrate_moves_home;
        Alcotest.test_case "migrate: flip within replicas" `Quick test_rack_migrate_flip_within_replicas;
        Alcotest.test_case "rebalance leaves replica set" `Quick test_rack_rebalance_leaves_replica_set;
        Alcotest.test_case "hottest tenant" `Quick test_rack_hottest_tenant;
      ] );
    ( "exp",
      [
        Alcotest.test_case "small bakeoff result" `Slow test_exp_small_result;
        Alcotest.test_case "same-seed rerun" `Slow test_exp_same_seed_rerun;
        Alcotest.test_case "serial vs jobs2" `Slow test_exp_serial_vs_jobs2;
      ] );
  ]
