(* Tests for the ReFlex server core: ACLs, control plane, dataplane
   threads, and the protocol-speaking server end-to-end with clients. *)

open Reflex_engine
open Reflex_flash
open Reflex_net
open Reflex_proto
open Reflex_qos
open Reflex_core
open Reflex_client

(* ------------------------------------------------------------------ *)
(* Acl                                                                *)
(* ------------------------------------------------------------------ *)

let test_acl_default_deny () =
  let acl = Acl.create () in
  Alcotest.(check bool) "conn denied" false (Acl.connection_allowed acl ~tenant:1);
  Alcotest.(check bool) "io denied" true
    (Acl.check acl ~tenant:1 ~kind:Io_op.Read ~lba:0L ~lba_count:1 = Acl.Denied_permission)

let test_acl_grant () =
  let acl = Acl.create () in
  Acl.grant acl ~tenant:1 { Acl.lba_lo = 100L; lba_hi = 200L; can_read = true; can_write = false };
  Alcotest.(check bool) "conn ok" true (Acl.connection_allowed acl ~tenant:1);
  Alcotest.(check bool) "read in range" true
    (Acl.check acl ~tenant:1 ~kind:Io_op.Read ~lba:150L ~lba_count:8 = Acl.Allowed);
  Alcotest.(check bool) "read to edge ok" true
    (Acl.check acl ~tenant:1 ~kind:Io_op.Read ~lba:199L ~lba_count:1 = Acl.Allowed);
  Alcotest.(check bool) "read past range" true
    (Acl.check acl ~tenant:1 ~kind:Io_op.Read ~lba:199L ~lba_count:2 = Acl.Denied_range);
  Alcotest.(check bool) "read below range" true
    (Acl.check acl ~tenant:1 ~kind:Io_op.Read ~lba:99L ~lba_count:1 = Acl.Denied_range);
  Alcotest.(check bool) "write not permitted" true
    (Acl.check acl ~tenant:1 ~kind:Io_op.Write ~lba:150L ~lba_count:1 = Acl.Denied_permission);
  Acl.revoke acl ~tenant:1;
  Alcotest.(check bool) "revoked" false (Acl.connection_allowed acl ~tenant:1)

let test_acl_permissive () =
  let acl = Acl.create_permissive ~lba_hi:1000L () in
  Alcotest.(check bool) "any tenant" true (Acl.connection_allowed acl ~tenant:42);
  Alcotest.(check bool) "rw ok" true
    (Acl.check acl ~tenant:42 ~kind:Io_op.Write ~lba:0L ~lba_count:1 = Acl.Allowed);
  Alcotest.(check bool) "range still enforced" true
    (Acl.check acl ~tenant:42 ~kind:Io_op.Read ~lba:999L ~lba_count:2 = Acl.Denied_range)

(* ------------------------------------------------------------------ *)
(* Costs                                                              *)
(* ------------------------------------------------------------------ *)

let test_conn_factor () =
  let c = Costs.default in
  Alcotest.(check (float 1e-9)) "below threshold" 1.0 (Costs.conn_factor c ~conns:1000);
  Alcotest.(check (float 1e-9)) "at threshold" 1.0
    (Costs.conn_factor c ~conns:c.Costs.conn_penalty_threshold);
  Alcotest.(check bool) "beyond threshold grows" true
    (Costs.conn_factor c ~conns:(c.Costs.conn_penalty_threshold + 4000) > 1.3)

(* ------------------------------------------------------------------ *)
(* Control_plane                                                      *)
(* ------------------------------------------------------------------ *)

let make_cp () =
  let profile = Device_profile.device_a in
  Control_plane.create ~profile ~cost_model:(Cost_model.of_profile profile) ()

let lc_20k = Slo.latency_critical ~latency_us:2000 ~iops:20_000.0 ~read_pct:90

let test_cp_admits_be_always () =
  let cp = make_cp () in
  for i = 1 to 50 do
    Alcotest.(check bool) "BE admitted" true
      (Control_plane.admit cp ~id:i ~slo:(Slo.best_effort ()) = Control_plane.Admitted)
  done

let test_cp_admission_limit_fig6a () =
  (* Paper §5.5: at a 2ms SLO, device A admits 12 tenants of
     20K IOPS / 90% reads before write interference exhausts capacity. *)
  let cp = make_cp () in
  let admitted = ref 0 in
  (try
     for i = 1 to 20 do
       match Control_plane.admit cp ~id:i ~slo:lc_20k with
       | Control_plane.Admitted -> incr admitted
       | Control_plane.Rejected_no_capacity | Control_plane.Rejected_duplicate -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Printf.sprintf "admits %d tenants (paper: 12)" !admitted)
    true
    (!admitted >= 10 && !admitted <= 14)

let test_cp_strictest_slo_governs () =
  let cp = make_cp () in
  ignore (Control_plane.admit cp ~id:1 ~slo:(Slo.latency_critical ~latency_us:2000 ~iops:1000.0 ~read_pct:100));
  let k_loose = Control_plane.total_token_rate cp in
  ignore (Control_plane.admit cp ~id:2 ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100));
  let k_strict = Control_plane.total_token_rate cp in
  Alcotest.(check bool)
    (Printf.sprintf "stricter SLO lowers rate (%.0fK -> %.0fK)" (k_loose /. 1e3) (k_strict /. 1e3))
    true (k_strict < k_loose);
  Alcotest.(check (option (float 1.0))) "strictest" (Some 500.0)
    (Control_plane.strictest_latency_us cp);
  Control_plane.forget cp ~id:2;
  Alcotest.(check (float 1.0)) "restored" k_loose (Control_plane.total_token_rate cp)

let test_cp_fig5_rates () =
  (* Scenario 1 of Figure 5: A reserves 120K tokens/s, B 196K; the two BE
     tenants split what remains. *)
  let cp = make_cp () in
  ignore (Control_plane.admit cp ~id:1 ~slo:(Slo.latency_critical ~latency_us:500 ~iops:120_000.0 ~read_pct:100));
  ignore (Control_plane.admit cp ~id:2 ~slo:(Slo.latency_critical ~latency_us:500 ~iops:70_000.0 ~read_pct:80));
  ignore (Control_plane.admit cp ~id:3 ~slo:(Slo.best_effort ~read_pct:95 ()));
  ignore (Control_plane.admit cp ~id:4 ~slo:(Slo.best_effort ~read_pct:25 ()));
  Alcotest.(check (option (float 1.0))) "tenant A rate" (Some 120_000.0)
    (Control_plane.token_rate_for cp ~id:1);
  Alcotest.(check (option (float 1.0))) "tenant B rate" (Some 196_000.0)
    (Control_plane.token_rate_for cp ~id:2);
  Alcotest.(check (float 1.0)) "LC reserve" 316_000.0 (Control_plane.lc_reserved_rate cp);
  let share = Control_plane.be_share cp in
  (* Paper reports 52K each on its 420K-token device; ours calibrates a
     slightly different K, but the share must be positive and equal. *)
  Alcotest.(check bool) (Printf.sprintf "BE share %.0fK > 30K" (share /. 1e3)) true
    (share > 30_000.0);
  Alcotest.(check (option (float 1.0))) "C gets the share" (Some share)
    (Control_plane.token_rate_for cp ~id:3)

let admission = Alcotest.testable Fmt.(using (function
  | Control_plane.Admitted -> "admitted"
  | Control_plane.Rejected_no_capacity -> "rejected_no_capacity"
  | Control_plane.Rejected_duplicate -> "rejected_duplicate") string)
  ( = )

let test_cp_duplicate_id () =
  (* Duplicate admit is a well-defined rejection, never an exception, and
     leaves the original registration (including its SLO) untouched. *)
  let cp = make_cp () in
  Alcotest.check admission "first" Control_plane.Admitted
    (Control_plane.admit cp ~id:1 ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100));
  let rate_before = Control_plane.token_rate_for cp ~id:1 in
  Alcotest.check admission "duplicate BE" Control_plane.Rejected_duplicate
    (Control_plane.admit cp ~id:1 ~slo:(Slo.best_effort ()));
  Alcotest.check admission "duplicate LC" Control_plane.Rejected_duplicate
    (Control_plane.admit cp ~id:1 ~slo:(Slo.latency_critical ~latency_us:200 ~iops:9_000.0 ~read_pct:100));
  Alcotest.(check int) "still one tenant" 1 (Control_plane.registered_count cp);
  Alcotest.(check (option (float 1.0))) "original SLO kept" rate_before
    (Control_plane.token_rate_for cp ~id:1);
  (* Re-registering after forget succeeds. *)
  Control_plane.forget cp ~id:1;
  Alcotest.check admission "re-admit after forget" Control_plane.Admitted
    (Control_plane.admit cp ~id:1 ~slo:(Slo.best_effort ()))

let test_cp_forget_unknown_idempotent () =
  (* Forgetting an id that was never admitted (or already forgotten) is a
     no-op: the unregister path may be retried. *)
  let cp = make_cp () in
  Control_plane.forget cp ~id:42;
  ignore (Control_plane.admit cp ~id:1 ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100));
  let reserved = Control_plane.lc_reserved_rate cp in
  Control_plane.forget cp ~id:2;
  Alcotest.(check (float 1.0)) "reservation untouched by unknown forget" reserved
    (Control_plane.lc_reserved_rate cp);
  Alcotest.(check int) "still registered" 1 (Control_plane.registered_count cp);
  Control_plane.forget cp ~id:1;
  Control_plane.forget cp ~id:1;
  Alcotest.(check int) "empty" 0 (Control_plane.registered_count cp)

let test_cp_capacity_factor () =
  (* Degradation re-pricing: the factor scales the sustainable token rate,
     shrinking BE shares and admission headroom; 1.0 restores exactly. *)
  let cp = make_cp () in
  ignore (Control_plane.admit cp ~id:1 ~slo:(Slo.latency_critical ~latency_us:500 ~iops:50_000.0 ~read_pct:100));
  ignore (Control_plane.admit cp ~id:2 ~slo:(Slo.best_effort ()));
  let rate0 = Control_plane.total_token_rate cp in
  let share0 = Control_plane.be_share cp in
  Control_plane.set_capacity_factor cp 0.5;
  Alcotest.(check (float 1e-6)) "factor readback" 0.5 (Control_plane.capacity_factor cp);
  Alcotest.(check (float 1.0)) "rate halves" (rate0 /. 2.0) (Control_plane.total_token_rate cp);
  Alcotest.(check bool) "BE share shrinks" true (Control_plane.be_share cp < share0);
  Control_plane.set_capacity_factor cp 1.0;
  Alcotest.(check (float 1.0)) "restored" rate0 (Control_plane.total_token_rate cp);
  Alcotest.(check (float 1.0)) "share restored" share0 (Control_plane.be_share cp);
  Alcotest.check_raises "zero rejected" (Invalid_argument "Control_plane.set_capacity_factor: factor in (0,1]")
    (fun () -> Control_plane.set_capacity_factor cp 0.0);
  Alcotest.check_raises "above one rejected" (Invalid_argument "Control_plane.set_capacity_factor: factor in (0,1]")
    (fun () -> Control_plane.set_capacity_factor cp 1.5)

let test_cp_default_curve_monotone () =
  let f = Control_plane.default_token_rate_fn Device_profile.device_a in
  Alcotest.(check bool) "monotone" true
    (f ~latency_us:200.0 < f ~latency_us:500.0 && f ~latency_us:500.0 < f ~latency_us:2000.0);
  Alcotest.(check bool) "bounded by capacity" true
    (f ~latency_us:1e6 <= Device_profile.token_capacity Device_profile.device_a +. 1.0)

(* Churn oracle: after any interleaving of admits and forgets, the
   control plane's cached aggregates (strictest SLO, mixed-priced LC
   reservation, non-read-only and BE counts) equal a fresh recompute — a
   new control plane that admits the survivors in ascending id order. *)
type cp_op = Admit of int * Slo.t | Forget of int

let show_cp_op = function
  | Admit (id, slo) ->
    if Slo.is_latency_critical slo then
      Printf.sprintf "admit %d LC %dus %.0f iops %d%%r" id slo.Slo.latency_us slo.Slo.iops
        slo.Slo.read_pct
    else Printf.sprintf "admit %d BE %d%%r" id slo.Slo.read_pct
  | Forget id -> Printf.sprintf "forget %d" id

let cp_op_gen =
  let open QCheck.Gen in
  let slo =
    oneofl [ 100; 90; 50; 0 ] >>= fun read_pct ->
    bool >>= fun lc ->
    if lc then
      map2
        (fun latency_us iops ->
          Slo.latency_critical ~latency_us ~iops:(float_of_int iops) ~read_pct)
        (int_range 100 2_000) (int_range 1_000 100_000)
    else return (Slo.best_effort ~read_pct ())
  in
  let id = int_range 1 12 in
  frequency [ (3, map2 (fun id slo -> Admit (id, slo)) id slo); (2, map (fun id -> Forget id) id) ]

let close_rel a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let prop_cp_churn_matches_fresh =
  QCheck.Test.make ~name:"admit/forget churn matches a fresh control plane" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list show_cp_op)
       QCheck.Gen.(list_size (int_range 1 40) cp_op_gen))
    (fun ops ->
      let cp = make_cp () in
      let survivors = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Admit (id, slo) ->
            if Control_plane.admit cp ~id ~slo = Control_plane.Admitted then
              Hashtbl.replace survivors id slo
          | Forget id ->
            Control_plane.forget cp ~id;
            Hashtbl.remove survivors id);
          let fresh = make_cp () in
          let all_admitted =
            Hashtbl.fold (fun id slo acc -> (id, slo) :: acc) survivors []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.for_all (fun (id, slo) ->
                   Control_plane.admit fresh ~id ~slo = Control_plane.Admitted)
          in
          let rates_agree =
            List.equal
              (fun (ia, ra) (ib, rb) -> ia = ib && close_rel ra rb)
              (Control_plane.current_rates cp) (Control_plane.current_rates fresh)
          in
          all_admitted
          && Control_plane.registered_count cp = Control_plane.registered_count fresh
          && Control_plane.fleet_read_only cp = Control_plane.fleet_read_only fresh
          && Control_plane.strictest_latency_us cp = Control_plane.strictest_latency_us fresh
          && close_rel (Control_plane.lc_reserved_rate cp) (Control_plane.lc_reserved_rate fresh)
          && close_rel (Control_plane.be_share cp) (Control_plane.be_share fresh)
          && close_rel (Control_plane.total_token_rate cp) (Control_plane.total_token_rate fresh)
          && rates_agree)
        ops)

(* ------------------------------------------------------------------ *)
(* End-to-end helpers                                                 *)
(* ------------------------------------------------------------------ *)

let setup ?acl () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let server = Server.create sim ~fabric ?acl () in
  (sim, fabric, server)

let connect_client sim fabric server ?(stack = Stack_model.ix_client) ?host () =
  Client_lib.connect sim fabric ~server_host:(Server.host server)
    ~accept:(Server.accept server) ~stack ?host ()

let register_ok sim client ~tenant ?slo () =
  let status = ref None in
  Client_lib.register client ~tenant ?slo (fun s -> status := Some s);
  ignore (Sim.run sim);
  match !status with
  | Some Message.Ok -> ()
  | Some s -> Alcotest.failf "registration failed: %s" (Message.status_to_string s)
  | None -> Alcotest.fail "no registration response"

(* ------------------------------------------------------------------ *)
(* Server end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let test_e2e_read_roundtrip () =
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let result = ref None in
  Client_lib.read client ~lba:42L ~len:4096 (fun status ~latency ->
      result := Some (status, latency));
  ignore (Sim.run sim);
  (match !result with
  | Some (Message.Ok, latency) ->
    let us = Time.to_float_us latency in
    (* Table 2: ReFlex with IX client, 4KB read ~ 99us average. *)
    Alcotest.(check bool) (Printf.sprintf "latency %.0fus in [80,130]" us) true
      (us > 80.0 && us < 130.0)
  | Some (s, _) -> Alcotest.failf "bad status %s" (Message.status_to_string s)
  | None -> Alcotest.fail "no response");
  Alcotest.(check int) "server counted it" 1 (Server.requests_completed server)

let test_e2e_write_roundtrip () =
  (* Steady-state queue-depth-1 writes (a cold-start single write pays an
     extra scheduling round or two waiting for its first tokens). *)
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let until = Time.ms 100 in
  let gen =
    Load_gen.closed_loop sim ~client ~depth:1 ~think:(Time.us 50) ~read_ratio:0.0 ~bytes:4096
      ~until ()
  in
  ignore (Sim.run ~until:(Time.ms 20) sim);
  Load_gen.mark_measurement_start gen;
  ignore (Sim.run sim);
  let us = Load_gen.mean_write_us gen in
  (* Table 2: ReFlex with IX client, 4KB write ~ 31us average. *)
  Alcotest.(check bool) (Printf.sprintf "latency %.0fus in [22,45]" us) true
    (us > 22.0 && us < 45.0)

let test_e2e_acl_denied_tenant () =
  let acl = Acl.create () in
  (* Only tenant 7 exists; tenant 8 may not even connect. *)
  Acl.grant acl ~tenant:7 { Acl.lba_lo = 0L; lba_hi = 1_000_000L; can_read = true; can_write = true };
  let sim, fabric, server = setup ~acl () in
  let client = connect_client sim fabric server () in
  let status = ref None in
  Client_lib.register client ~tenant:8 (fun s -> status := Some s);
  ignore (Sim.run sim);
  Alcotest.(check bool) "denied" true (!status = Some Message.Denied)

let test_e2e_out_of_range () =
  let acl = Acl.create () in
  Acl.grant acl ~tenant:1 { Acl.lba_lo = 0L; lba_hi = 1000L; can_read = true; can_write = true };
  let sim, fabric, server = setup ~acl () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let status = ref None in
  Client_lib.read client ~lba:5000L ~len:4096 (fun s ~latency:_ -> status := Some s);
  ignore (Sim.run sim);
  Alcotest.(check bool) "out of range" true (!status = Some Message.Out_of_range)

let test_e2e_read_only_namespace () =
  let acl = Acl.create () in
  Acl.grant acl ~tenant:1 { Acl.lba_lo = 0L; lba_hi = 1000L; can_read = true; can_write = false };
  let sim, fabric, server = setup ~acl () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let status = ref None in
  Client_lib.write client ~lba:1L ~len:4096 (fun s ~latency:_ -> status := Some s);
  ignore (Sim.run sim);
  Alcotest.(check bool) "write denied" true (!status = Some Message.Denied)

let test_e2e_no_capacity () =
  let sim, fabric, server = setup () in
  (* Demand far beyond device A's token rate at a tight SLO. *)
  let c1 = connect_client sim fabric server () in
  let slo1 =
    { Message.latency_us = 500; iops = 300_000; read_pct = 50; latency_critical = true }
  in
  let s1 = ref None in
  Client_lib.register c1 ~tenant:1 ~slo:slo1 (fun s -> s1 := Some s);
  ignore (Sim.run sim);
  Alcotest.(check bool) "over-demanding tenant rejected" true (!s1 = Some Message.No_capacity)

let test_e2e_unregister () =
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  Alcotest.(check int) "registered" 1 (Server.registered_tenants server);
  let done_ = ref false in
  Client_lib.unregister client (fun () -> done_ := true);
  ignore (Sim.run sim);
  Alcotest.(check bool) "unregistered callback" true !done_;
  Alcotest.(check int) "gone" 0 (Server.registered_tenants server)

let test_e2e_two_conns_share_tenant () =
  let sim, fabric, server = setup () in
  let c1 = connect_client sim fabric server () in
  let c2 = connect_client sim fabric server () in
  register_ok sim c1 ~tenant:5 ();
  register_ok sim c2 ~tenant:5 ();
  Alcotest.(check int) "one tenant" 1 (Server.registered_tenants server);
  let ok = ref 0 in
  Client_lib.read c1 ~lba:0L ~len:4096 (fun s ~latency:_ -> if s = Message.Ok then incr ok);
  Client_lib.read c2 ~lba:1L ~len:4096 (fun s ~latency:_ -> if s = Message.Ok then incr ok);
  ignore (Sim.run sim);
  Alcotest.(check int) "both conns served" 2 !ok

let test_e2e_io_without_register_raises () =
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  ignore sim;
  Alcotest.check_raises "client refuses" (Failure "Client_lib: not registered") (fun () ->
      Client_lib.read client ~lba:0L ~len:4096 (fun _ ~latency:_ -> ()))

let test_e2e_raw_io_on_unregistered_conn_denied () =
  (* Bypass the client library and push a raw read request on a fresh
     connection: the server must refuse it. *)
  let sim, fabric, server = setup () in
  let host = Fabric.add_host fabric ~name:"rogue" ~stack:Stack_model.ix_client in
  let conn = Tcp_conn.connect fabric ~client:host ~server:(Server.host server) in
  Server.accept server conn;
  let got = ref None in
  Tcp_conn.set_client_handler conn (fun msg ~size:_ -> got := Some msg);
  let msg = Message.Read_req { handle = 1; req_id = 9L; lba = 0L; len = 4096 } in
  Tcp_conn.send_to_server conn ~size:(Codec.encoded_size msg) msg;
  ignore (Sim.run sim);
  match !got with
  | Some (Message.Error_resp { status = Message.Denied; _ }) -> ()
  | _ -> Alcotest.fail "expected a Denied error response"

let test_e2e_unregister_answers_queued_read () =
  (* A read still in the receive ring when its tenant unregisters is
     answered with an error, never dropped.  A stall holds the thread's
     core, so the read and the unregister sent back to back both arrive
     before the thread parses the read. *)
  let sim, fabric, server = setup () in
  let host = Fabric.add_host fabric ~name:"raw" ~stack:Stack_model.ix_client in
  let conn = Tcp_conn.connect fabric ~client:host ~server:(Server.host server) in
  Server.accept server conn;
  let got = ref [] in
  Tcp_conn.set_client_handler conn (fun msg ~size:_ -> got := msg :: !got);
  let send msg = Tcp_conn.send_to_server conn ~size:(Codec.encoded_size msg) msg in
  send (Message.Register { tenant = 1; slo = Message.best_effort_slo });
  ignore (Sim.run sim);
  Server.inject_thread_stall server ~thread:0 ~duration:(Time.us 100);
  send (Message.Read_req { handle = 1; req_id = 9L; lba = 0L; len = 4096 });
  send (Message.Unregister { handle = 1 });
  ignore (Sim.run sim);
  match List.rev !got with
  | [
   Message.Registered { status = Message.Ok; _ };
   Message.Unregistered { handle = 1 };
   Message.Error_resp { req_id = 9L; status = Message.Bad_request };
  ] ->
    ()
  | msgs ->
    Alcotest.failf "expected Registered, Unregistered, Error_resp Bad_request; got %d messages"
      (List.length msgs)

(* The per-thread connection counts are kept incrementally, so every
   register, join and unregister must leave them exactly where a fresh
   server holding only the survivors would have them.  Every connection
   raises the per-cycle CPU charge (penalty threshold 0, steep slope) and
   QoS is off, so no token wait hides it: a qd-1 read on each thread then
   takes the same simulated time on both servers only if the counts
   agree. *)
let churn_costs = { Costs.default with conn_penalty_threshold = 0; conn_penalty_slope = 0.25 }

let qd1_read_latency sim client =
  let latency = ref None in
  Client_lib.read client ~lba:0L ~len:4096 (fun s ~latency:l ->
      if s = Message.Ok then latency := Some l);
  ignore (Sim.run sim);
  match !latency with Some l -> l | None -> Alcotest.fail "read failed"

let test_e2e_conn_counts_follow_churn () =
  let churn_server () =
    let sim = Sim.create () in
    let fabric = Fabric.create sim () in
    let server = Server.create sim ~fabric ~costs:churn_costs ~qos:false ~n_threads:2 () in
    (sim, fabric, server)
  in
  (* Churned: tenants 1..4 land on threads 0,1,0,1; a second connection
     joins tenant 1 (thread 0); tenant 4 (thread 1) leaves. *)
  let sim, fabric, server = churn_server () in
  let c1 = connect_client sim fabric server () in
  register_ok sim c1 ~tenant:1 ();
  let c2 = connect_client sim fabric server () in
  register_ok sim c2 ~tenant:2 ();
  register_ok sim (connect_client sim fabric server ()) ~tenant:3 ();
  let c4 = connect_client sim fabric server () in
  register_ok sim c4 ~tenant:4 ();
  register_ok sim (connect_client sim fabric server ()) ~tenant:1 ();
  Client_lib.unregister c4 (fun () -> ());
  ignore (Sim.run sim);
  let churned = (qd1_read_latency sim c1, qd1_read_latency sim c2) in
  (* Fresh: the survivors with the same connections, placed the same way
     (1 and 3 on thread 0, 2 on thread 1). *)
  let sim, fabric, server = churn_server () in
  let c1 = connect_client sim fabric server () in
  register_ok sim c1 ~tenant:1 ();
  register_ok sim (connect_client sim fabric server ()) ~tenant:1 ();
  let c2 = connect_client sim fabric server () in
  register_ok sim c2 ~tenant:2 ();
  register_ok sim (connect_client sim fabric server ()) ~tenant:3 ();
  let fresh = (qd1_read_latency sim c1, qd1_read_latency sim c2) in
  Alcotest.(check (pair int64 int64)) "same simulated read latency per thread" fresh churned

let test_e2e_qos_protects_lc_tenant () =
  (* Miniature Figure 5: an LC read tenant keeps its tail under the SLO
     while a BE tenant floods writes.  The same offered load through the
     QoS-free libaio baseline blows the read tail by an order of
     magnitude. *)
  let lc_p95_reflex =
    let sim, fabric, server = setup () in
    let lc = connect_client sim fabric server () in
    let be = connect_client sim fabric server () in
    let slo = { Message.latency_us = 500; iops = 50_000; read_pct = 100; latency_critical = true } in
    register_ok sim lc ~tenant:1 ~slo ();
    register_ok sim be ~tenant:2
      ~slo:{ Message.latency_us = 0; iops = 0; read_pct = 0; latency_critical = false }
      ();
    let until = Time.ms 200 in
    let lc_gen =
      Load_gen.open_loop sim ~client:lc ~pacing:`Cbr ~rate:50_000.0 ~read_ratio:1.0 ~bytes:4096
        ~until ()
    in
    let _be_gen =
      Load_gen.open_loop sim ~client:be ~rate:100_000.0 ~read_ratio:0.0 ~bytes:4096 ~until
        ~seed:99L ()
    in
    ignore (Sim.run ~until:(Time.ms 50) sim);
    Load_gen.mark_measurement_start lc_gen;
    ignore (Sim.run ~until:until sim);
    Load_gen.p95_read_us lc_gen
  in
  let lc_p95_libaio =
    let sim = Sim.create () in
    let fabric = Fabric.create sim () in
    let server = Reflex_baselines.Baseline_server.create sim ~fabric ~kind:Reflex_baselines.Baseline_server.Libaio ~n_threads:4 () in
    let accept = Reflex_baselines.Baseline_server.accept server in
    let server_host = Reflex_baselines.Baseline_server.host server in
    let lc = Client_lib.connect sim fabric ~server_host ~accept ~stack:Stack_model.ix_client () in
    let be = Client_lib.connect sim fabric ~server_host ~accept ~stack:Stack_model.ix_client () in
    Client_lib.register lc ~tenant:1 (fun _ -> ());
    Client_lib.register be ~tenant:2 (fun _ -> ());
    ignore (Sim.run sim);
    let until = Time.ms 200 in
    let lc_gen =
      Load_gen.open_loop sim ~client:lc ~pacing:`Cbr ~rate:50_000.0 ~read_ratio:1.0 ~bytes:4096
        ~until ()
    in
    let _be_gen =
      Load_gen.open_loop sim ~client:be ~rate:100_000.0 ~read_ratio:0.0 ~bytes:4096 ~until
        ~seed:99L ()
    in
    ignore (Sim.run ~until:(Time.ms 50) sim);
    Load_gen.mark_measurement_start lc_gen;
    ignore (Sim.run ~until:until sim);
    Load_gen.p95_read_us lc_gen
  in
  Alcotest.(check bool)
    (Printf.sprintf "ReFlex LC p95 %.0fus <= 500us SLO" lc_p95_reflex)
    true (lc_p95_reflex <= 500.0);
  Alcotest.(check bool)
    (Printf.sprintf "libaio p95 %.0fus >> ReFlex %.0fus" lc_p95_libaio lc_p95_reflex)
    true
    (lc_p95_libaio > 2.0 *. lc_p95_reflex)

let test_e2e_barrier_orders_io () =
  (* Issue 8 writes, a barrier, then 8 reads: every write must complete
     before the barrier does, and every read must start after it. *)
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let events = ref [] in
  for i = 1 to 8 do
    Client_lib.write client ~lba:(Int64.of_int i) ~len:4096 (fun _ ~latency:_ ->
        events := `Write_done i :: !events)
  done;
  Client_lib.barrier client (fun status ~latency:_ ->
      Alcotest.(check bool) "barrier ok" true (status = Message.Ok);
      events := `Barrier :: !events);
  for i = 1 to 8 do
    Client_lib.read client ~lba:(Int64.of_int i) ~len:4096 (fun _ ~latency:_ ->
        events := `Read_done i :: !events)
  done;
  ignore (Sim.run sim);
  let order = List.rev !events in
  Alcotest.(check int) "all events" 17 (List.length order);
  (* All writes strictly before the barrier, all reads strictly after. *)
  let rec split acc = function
    | `Barrier :: rest -> (List.rev acc, rest)
    | e :: rest -> split (e :: acc) rest
    | [] -> Alcotest.fail "no barrier event"
  in
  let before, after = split [] order in
  Alcotest.(check int) "8 completions before barrier" 8 (List.length before);
  List.iter
    (function `Write_done _ -> () | _ -> Alcotest.fail "read overtook the barrier")
    before;
  Alcotest.(check int) "8 completions after barrier" 8 (List.length after);
  List.iter
    (function `Read_done _ -> () | _ -> Alcotest.fail "write after barrier")
    after

let test_e2e_barrier_empty_completes () =
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let lat = ref None in
  Client_lib.barrier client (fun status ~latency ->
      if status = Message.Ok then lat := Some latency);
  ignore (Sim.run sim);
  match !lat with
  | Some l ->
    (* Nothing outstanding: just a network round trip, well under 50us. *)
    Alcotest.(check bool) "fast no-op barrier" true Time.(l < Time.us 50)
  | None -> Alcotest.fail "barrier did not complete"

let test_e2e_double_barrier () =
  (* Two barriers with work between them preserve both cut points. *)
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let log = ref [] in
  Client_lib.write client ~lba:1L ~len:4096 (fun _ ~latency:_ -> log := "w1" :: !log);
  Client_lib.barrier client (fun _ ~latency:_ -> log := "b1" :: !log);
  Client_lib.write client ~lba:2L ~len:4096 (fun _ ~latency:_ -> log := "w2" :: !log);
  Client_lib.barrier client (fun _ ~latency:_ -> log := "b2" :: !log);
  Client_lib.read client ~lba:2L ~len:4096 (fun _ ~latency:_ -> log := "r" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "cut points preserved" [ "w1"; "b1"; "w2"; "b2"; "r" ]
    (List.rev !log)

let test_e2e_deficit_notifications () =
  (* A tenant bursting writes far past its small reservation drives its
     balance to NEG_LIMIT; the control plane gets notified (§3.2.2). *)
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  let slo = { Message.latency_us = 1000; iops = 5_000; read_pct = 50; latency_critical = true } in
  register_ok sim client ~tenant:1 ~slo ();
  let until = Time.ms 100 in
  let _gen = Load_gen.open_loop sim ~client ~rate:50_000.0 ~read_ratio:0.5 ~bytes:4096 ~until () in
  ignore (Sim.run ~until sim);
  Alcotest.(check bool) "control plane notified" true
    (Server.deficit_notifications server ~tenant:1 > 0);
  Alcotest.(check bool) "flagged for renegotiation" true
    (Server.deficit_notifications server ~tenant:1 >= 10)

(* The per-tenant counter lookups allocate nothing, for a registered
   tenant and an unknown one alike: exactly 0 words over 10,000 calls of
   each.  Run under both build profiles ([make alloc-gate] runs it alone
   in release). *)
let test_lookups_allocation_free () =
  let sim, fabric, server = setup () in
  register_ok sim (connect_client sim fabric server ()) ~tenant:1 ();
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (what, tenant) ->
      Alcotest.(check (float 0.0)) (what ^ ": tenant_completed words") 0.0
        (words (fun () -> Server.tenant_completed server ~tenant));
      Alcotest.(check (float 0.0)) (what ^ ": deficit_notifications words") 0.0
        (words (fun () -> Server.deficit_notifications server ~tenant)))
    [ ("registered", 1); ("unknown", 99) ]

(* Minor words per request through one dataplane thread, receive to
   respond, in steady state: one best-effort tenant with an unbounded
   rate, batches of 16 4KB reads received together and run to
   completion.  What is left is the boxed [Time.t]s at module edges (each
   core step's service, the die's delay, the latency the device hands
   back, the clock re-boxed as time advances) and the floats the cost
   model and the lognormal service noise return.  Exact for the seed;
   run under both build profiles ([make alloc-gate] runs it alone in
   release). *)
let dataplane_request_words () =
  let sim = Sim.create () in
  let profile = Device_profile.device_a in
  let device = Nvme_model.create sim ~profile ~prng:(Prng.split (Sim.prng sim)) in
  let responded = ref 0 in
  let dp =
    Dataplane.create sim ~thread_id:0 ~qp:(Queue_pair.create device) ~device
      ~cost_model:(Cost_model.of_profile profile) ~global:(Global_bucket.create ~n_threads:1)
      ~stages:(Reflex_obs.Stage.sink ~lane:0)
      ~respond:(fun ~kind:_ _ -> incr responded)
      ()
  in
  Dataplane.add_tenant dp ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:1e15;
  let batch () =
    for i = 1 to 16 do
      Dataplane.receive dp ~tenant_id:1 ~kind:Io_op.Read ~bytes:4096 i
    done;
    ignore (Sim.run sim)
  in
  for _ = 1 to 10 do
    batch ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    batch ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every request answered" 16_160 !responded;
  words /. 16_000.0

let test_dataplane_request_words () =
  let w = dataplane_request_words () in
  Alcotest.(check bool) (Printf.sprintf "%.3f words per dataplane request <= 30.04" w) true (w <= 30.04)

(* ------------------------------------------------------------------ *)
(* Global_control                                                     *)
(* ------------------------------------------------------------------ *)

let make_pool () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let gc = Global_control.create () in
  let strict = Server.create sim ~fabric () in
  let loose = Server.create sim ~fabric () in
  Global_control.add_server gc ~name:"strict-pool" strict;
  Global_control.add_server gc ~name:"loose-pool" loose;
  (* Seed each server's character. *)
  ignore
    (Control_plane.admit (Server.control_plane strict) ~id:900
       ~slo:(Slo.latency_critical ~latency_us:300 ~iops:50_000.0 ~read_pct:100));
  ignore
    (Control_plane.admit (Server.control_plane loose) ~id:901
       ~slo:(Slo.latency_critical ~latency_us:5000 ~iops:50_000.0 ~read_pct:100));
  (sim, gc, strict, loose)

let test_global_colocates_similar_slos () =
  let _, gc, _, _ = make_pool () in
  (* A loose tenant goes with the loose crowd; a strict one with the
     strict crowd (paper §4.3 placement guidance). *)
  (match Global_control.place gc ~slo:(Slo.latency_critical ~latency_us:4000 ~iops:10_000.0 ~read_pct:100) with
  | Some p -> Alcotest.(check string) "loose tenant placed loose" "loose-pool" p.Global_control.server_name
  | None -> Alcotest.fail "no placement");
  match Global_control.place gc ~slo:(Slo.latency_critical ~latency_us:350 ~iops:10_000.0 ~read_pct:100) with
  | Some p -> Alcotest.(check string) "strict tenant placed strict" "strict-pool" p.Global_control.server_name
  | None -> Alcotest.fail "no placement"

let test_global_respects_capacity () =
  let _, gc, _, _ = make_pool () in
  (* An inadmissible SLO is rejected everywhere. *)
  Alcotest.(check bool) "over-demanding tenant unplaceable" true
    (Global_control.place gc
       ~slo:(Slo.latency_critical ~latency_us:500 ~iops:2_000_000.0 ~read_pct:50)
    = None)

let test_global_be_goes_to_headroom () =
  let _, gc, strict, _ = make_pool () in
  (* Fill the strict server's capacity; a BE tenant then lands loose. *)
  ignore
    (Control_plane.admit (Server.control_plane strict) ~id:902
       ~slo:(Slo.latency_critical ~latency_us:300 ~iops:150_000.0 ~read_pct:100));
  match Global_control.place gc ~slo:(Slo.best_effort ()) with
  | Some p -> Alcotest.(check string) "BE to headroom" "loose-pool" p.Global_control.server_name
  | None -> Alcotest.fail "BE must always place"

let test_global_place_and_admit () =
  let _, gc, _, _ = make_pool () in
  let slo = Slo.latency_critical ~latency_us:4000 ~iops:10_000.0 ~read_pct:100 in
  match Global_control.place_and_admit gc ~id:950 ~slo with
  | Some p ->
    Alcotest.(check string) "placed" "loose-pool" p.Global_control.server_name;
    (* The dry-run reservation is released: the wire registration owns it. *)
    Alcotest.(check bool) "not pre-registered" false
      (Control_plane.is_registered (Server.control_plane p.Global_control.server) ~id:950)
  | None -> Alcotest.fail "placement failed"

(* ------------------------------------------------------------------ *)
(* Load_gen                                                           *)
(* ------------------------------------------------------------------ *)

let test_load_gen_open_loop_rate () =
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let until = Time.ms 100 in
  let gen = Load_gen.open_loop sim ~client ~rate:50_000.0 ~read_ratio:1.0 ~bytes:4096 ~until () in
  ignore (Sim.run ~until sim);
  Load_gen.freeze_window gen;
  ignore (Sim.run sim);
  let iops = Load_gen.achieved_iops gen in
  Alcotest.(check bool) (Printf.sprintf "achieved %.0f ~ 50K" iops) true
    (iops > 45_000.0 && iops < 55_000.0);
  Alcotest.(check int) "no errors" 0 (Load_gen.errors gen)

let test_load_gen_closed_loop_inflight () =
  let sim, fabric, server = setup () in
  let client = connect_client sim fabric server () in
  register_ok sim client ~tenant:1 ();
  let until = Time.ms 20 in
  let _gen = Load_gen.closed_loop sim ~client ~depth:8 ~read_ratio:1.0 ~bytes:4096 ~until () in
  let max_seen = ref 0 in
  Sim.every sim ~every:(Time.us 50) ~until (fun _ ->
      max_seen := max !max_seen (Client_lib.inflight client));
  ignore (Sim.run sim);
  Alcotest.(check bool) (Printf.sprintf "inflight peak %d <= 8" !max_seen) true (!max_seen <= 8);
  Alcotest.(check bool) "kept device busy" true (!max_seen >= 6)

(* ------------------------------------------------------------------ *)
(* Blk_dev                                                            *)
(* ------------------------------------------------------------------ *)

let test_blk_dev_bio_roundtrip () =
  let sim, fabric, server = setup () in
  let dev = ref None in
  Blk_dev.create sim fabric ~server_host:(Server.host server) ~accept:(Server.accept server)
    ~n_contexts:2 ~tenant:1 () (fun d -> dev := Some d);
  ignore (Sim.run sim);
  let dev = match !dev with Some d -> d | None -> Alcotest.fail "device not ready" in
  Alcotest.(check int) "contexts" 2 (Blk_dev.n_contexts dev);
  let lat = ref None in
  Blk_dev.submit_bio dev ~kind:Io_op.Read ~lba:0L ~bytes:4096 (fun ~latency -> lat := Some latency);
  ignore (Sim.run sim);
  (match !lat with
  | Some l ->
    let us = Time.to_float_us l in
    (* Linux client path: ~130-180us unloaded. *)
    Alcotest.(check bool) (Printf.sprintf "bio latency %.0fus in [100,220]" us) true
      (us > 100.0 && us < 220.0)
  | None -> Alcotest.fail "bio did not complete");
  Alcotest.(check int) "bio counted" 1 (Blk_dev.bios_completed dev)

let test_blk_dev_large_bio_splits () =
  let sim, fabric, server = setup () in
  let dev = ref None in
  Blk_dev.create sim fabric ~server_host:(Server.host server) ~accept:(Server.accept server)
    ~n_contexts:4 ~tenant:1 () (fun d -> dev := Some d);
  ignore (Sim.run sim);
  let dev = match !dev with Some d -> d | None -> Alcotest.fail "not ready" in
  let done_ = ref false in
  (* 32KB bio = eight 4KB blocks; completes only when all blocks do. *)
  Blk_dev.submit_bio dev ~kind:Io_op.Read ~lba:0L ~bytes:32768 (fun ~latency:_ -> done_ := true);
  ignore (Sim.run sim);
  Alcotest.(check bool) "completed" true !done_;
  Alcotest.(check int) "server saw 8 requests" 8 (Server.requests_completed server)

(* ------------------------------------------------------------------ *)
(* Baselines                                                          *)
(* ------------------------------------------------------------------ *)

let test_local_unloaded () =
  let sim = Sim.create () in
  let local = Reflex_baselines.Local.create sim () in
  let latencies = ref [] in
  let remaining = ref 500 in
  let rec next () =
    if !remaining > 0 then begin
      decr remaining;
      Reflex_baselines.Local.submit local ~kind:Io_op.Read ~bytes:4096 (fun ~latency ->
          latencies := Time.to_float_us latency :: !latencies;
          ignore (Sim.after sim (Time.us 100) next))
    end
  in
  ignore (Sim.at sim Time.zero next);
  ignore (Sim.run sim);
  let mean = List.fold_left ( +. ) 0.0 (List.rev !latencies) /. 500.0 in
  (* Table 2 local SPDK row: 78us average read. *)
  Alcotest.(check bool) (Printf.sprintf "local read %.0fus in [72,90]" mean) true
    (mean > 72.0 && mean < 90.0)

let test_local_core_limit () =
  (* One core saturates around 870K IOPS (paper §5.3): a 1.2M flood
     completes at most ~900K/s. *)
  let sim = Sim.create () in
  let local = Reflex_baselines.Local.create sim ~n_threads:1 () in
  let window = Time.ms 50 in
  let prng = Prng.create 7L in
  let rec arrival () =
    if Time.(Sim.now sim <= window) then begin
      Reflex_baselines.Local.submit local ~kind:Io_op.Read ~bytes:1024 (fun ~latency:_ -> ());
      let gap = Time.max (Time.ns 1) (Time.of_float_ns (Prng.exponential prng ~mean:833.0)) in
      ignore (Sim.after sim gap arrival)
    end
  in
  ignore (Sim.at sim Time.zero arrival);
  ignore (Sim.run ~until:window sim);
  let rate = float_of_int (Reflex_baselines.Local.completed local) /. Time.to_float_sec window in
  Alcotest.(check bool)
    (Printf.sprintf "core-limited: %.0fK in [750K,950K]" (rate /. 1e3))
    true
    (rate > 750e3 && rate < 950e3)

let baseline_unloaded ~kind ~stack =
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let server = Reflex_baselines.Baseline_server.create sim ~fabric ~kind () in
  let client =
    Client_lib.connect sim fabric
      ~server_host:(Reflex_baselines.Baseline_server.host server)
      ~accept:(Reflex_baselines.Baseline_server.accept server)
      ~stack ()
  in
  Client_lib.register client ~tenant:1 (fun _ -> ());
  ignore (Sim.run sim);
  let until = Time.ms 200 in
  let gen =
    Load_gen.closed_loop sim ~client ~depth:1 ~think:(Time.us 50) ~read_ratio:1.0 ~bytes:4096
      ~until ()
  in
  ignore (Sim.run ~until:(Time.add until (Time.ms 10)) sim);
  Load_gen.mean_read_us gen

let test_libaio_unloaded () =
  let mean =
    baseline_unloaded ~kind:Reflex_baselines.Baseline_server.Libaio ~stack:Stack_model.ix_client
  in
  (* Table 2: libaio with IX client, 121us average read. *)
  Alcotest.(check bool) (Printf.sprintf "libaio+IX read %.0fus in [105,145]" mean) true
    (mean > 105.0 && mean < 145.0)

let test_iscsi_unloaded () =
  let mean =
    baseline_unloaded ~kind:Reflex_baselines.Baseline_server.Iscsi ~stack:Stack_model.linux_client
  in
  (* Table 2: iSCSI with Linux client, 211us average read (2.8x local). *)
  Alcotest.(check bool) (Printf.sprintf "iscsi read %.0fus in [170,260]" mean) true
    (mean > 170.0 && mean < 260.0)

let test_libaio_per_core_cap () =
  (* ~75K IOPS per core (paper §2.1): offer 150K to one worker thread. *)
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let server =
    Reflex_baselines.Baseline_server.create sim ~fabric
      ~kind:Reflex_baselines.Baseline_server.Libaio ~n_threads:1 ()
  in
  let client =
    Client_lib.connect sim fabric
      ~server_host:(Reflex_baselines.Baseline_server.host server)
      ~accept:(Reflex_baselines.Baseline_server.accept server)
      ~stack:Stack_model.ix_client ()
  in
  Client_lib.register client ~tenant:1 (fun _ -> ());
  ignore (Sim.run sim);
  let until = Time.ms 150 in
  let _gen = Load_gen.open_loop sim ~client ~rate:150_000.0 ~read_ratio:1.0 ~bytes:1024 ~until () in
  ignore (Sim.run ~until:(Time.ms 30) sim);
  (* Under 2x overload the client-side window mixes in backlogged
     completions, so measure the server's completion counter directly. *)
  let c0 = Reflex_baselines.Baseline_server.requests_completed server in
  ignore (Sim.run ~until sim);
  let c1 = Reflex_baselines.Baseline_server.requests_completed server in
  let iops = float_of_int (c1 - c0) /. 0.12 in
  Alcotest.(check bool)
    (Printf.sprintf "libaio core cap %.0fK in [60K,90K]" (iops /. 1e3))
    true
    (iops > 60e3 && iops < 90e3)

let suite =
  [
    ( "acl",
      [
        Alcotest.test_case "default deny" `Quick test_acl_default_deny;
        Alcotest.test_case "grant/revoke" `Quick test_acl_grant;
        Alcotest.test_case "permissive" `Quick test_acl_permissive;
      ] );
    ("costs", [ Alcotest.test_case "connection cache penalty" `Quick test_conn_factor ]);
    ( "control_plane",
      [
        Alcotest.test_case "BE always admitted" `Quick test_cp_admits_be_always;
        Alcotest.test_case "admission limit (Fig 6a)" `Quick test_cp_admission_limit_fig6a;
        Alcotest.test_case "strictest SLO governs" `Quick test_cp_strictest_slo_governs;
        Alcotest.test_case "Figure 5 token rates" `Quick test_cp_fig5_rates;
        Alcotest.test_case "duplicate id" `Quick test_cp_duplicate_id;
        Alcotest.test_case "forget unknown id is a no-op" `Quick
          test_cp_forget_unknown_idempotent;
        Alcotest.test_case "capacity factor re-pricing" `Quick test_cp_capacity_factor;
        Alcotest.test_case "default curve monotone" `Quick test_cp_default_curve_monotone;
        QCheck_alcotest.to_alcotest prop_cp_churn_matches_fresh;
      ] );
    ( "server_e2e",
      [
        Alcotest.test_case "read roundtrip (Table 2)" `Quick test_e2e_read_roundtrip;
        Alcotest.test_case "write roundtrip (Table 2)" `Quick test_e2e_write_roundtrip;
        Alcotest.test_case "ACL denies unknown tenant" `Quick test_e2e_acl_denied_tenant;
        Alcotest.test_case "LBA out of range" `Quick test_e2e_out_of_range;
        Alcotest.test_case "read-only namespace" `Quick test_e2e_read_only_namespace;
        Alcotest.test_case "admission rejects over-demand" `Quick test_e2e_no_capacity;
        Alcotest.test_case "unregister" `Quick test_e2e_unregister;
        Alcotest.test_case "two conns share a tenant" `Quick test_e2e_two_conns_share_tenant;
        Alcotest.test_case "client refuses io before register" `Quick
          test_e2e_io_without_register_raises;
        Alcotest.test_case "raw io on unregistered conn denied" `Quick
          test_e2e_raw_io_on_unregistered_conn_denied;
        Alcotest.test_case "unregister answers a queued read" `Quick
          test_e2e_unregister_answers_queued_read;
        Alcotest.test_case "connection counts follow churn" `Quick
          test_e2e_conn_counts_follow_churn;
        Alcotest.test_case "QoS protects LC from BE writes (Fig 5)" `Slow
          test_e2e_qos_protects_lc_tenant;
        Alcotest.test_case "barrier orders I/O" `Quick test_e2e_barrier_orders_io;
        Alcotest.test_case "empty barrier completes fast" `Quick test_e2e_barrier_empty_completes;
        Alcotest.test_case "double barrier" `Quick test_e2e_double_barrier;
        Alcotest.test_case "deficit notifications (SS3.2.2)" `Quick test_e2e_deficit_notifications;
      ] );
    ( "alloc",
      [
        Alcotest.test_case "tenant lookups allocation-free" `Quick test_lookups_allocation_free;
        Alcotest.test_case "dataplane request words" `Quick test_dataplane_request_words;
      ] );
    ( "global_control",
      [
        Alcotest.test_case "co-locates similar SLOs" `Quick test_global_colocates_similar_slos;
        Alcotest.test_case "respects capacity" `Quick test_global_respects_capacity;
        Alcotest.test_case "BE to most headroom" `Quick test_global_be_goes_to_headroom;
        Alcotest.test_case "place and admit" `Quick test_global_place_and_admit;
      ] );
    ( "load_gen",
      [
        Alcotest.test_case "open-loop rate" `Quick test_load_gen_open_loop_rate;
        Alcotest.test_case "closed-loop depth" `Quick test_load_gen_closed_loop_inflight;
      ] );
    ( "blk_dev",
      [
        Alcotest.test_case "bio roundtrip" `Quick test_blk_dev_bio_roundtrip;
        Alcotest.test_case "large bio splits into blocks" `Quick test_blk_dev_large_bio_splits;
      ] );
    ( "baselines",
      [
        Alcotest.test_case "local unloaded (Table 2)" `Quick test_local_unloaded;
        Alcotest.test_case "local single-core limit" `Quick test_local_core_limit;
        Alcotest.test_case "libaio unloaded (Table 2)" `Quick test_libaio_unloaded;
        Alcotest.test_case "iscsi unloaded (Table 2)" `Quick test_iscsi_unloaded;
        Alcotest.test_case "libaio 75K IOPS/core" `Quick test_libaio_per_core_cap;
      ] );
  ]
