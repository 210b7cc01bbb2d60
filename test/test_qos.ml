(* Tests for the QoS machinery: SLOs, cost model, token accounting and the
   Algorithm-1 scheduler. *)

open Reflex_engine
open Reflex_flash
open Reflex_qos

(* ------------------------------------------------------------------ *)
(* Slo                                                                *)
(* ------------------------------------------------------------------ *)

let test_slo_constructors () =
  let lc = Slo.latency_critical ~latency_us:500 ~iops:50_000.0 ~read_pct:80 in
  Alcotest.(check bool) "lc" true (Slo.is_latency_critical lc);
  Alcotest.(check (float 1e-9)) "read ratio" 0.8 (Slo.read_ratio lc);
  let be = Slo.best_effort ~read_pct:25 () in
  Alcotest.(check bool) "be" false (Slo.is_latency_critical be);
  Alcotest.check_raises "bad read_pct" (Invalid_argument "Slo: read_pct must be in 0..100")
    (fun () -> ignore (Slo.latency_critical ~latency_us:500 ~iops:1.0 ~read_pct:101));
  Alcotest.check_raises "bad iops"
    (Invalid_argument "Slo.latency_critical: non-positive IOPS") (fun () ->
      ignore (Slo.latency_critical ~latency_us:500 ~iops:0.0 ~read_pct:50))

(* ------------------------------------------------------------------ *)
(* Cost_model                                                         *)
(* ------------------------------------------------------------------ *)

let model_a = Cost_model.of_profile Device_profile.device_a

let test_cost_basic () =
  Alcotest.(check (float 1e-9)) "4KB mixed read = 1 token" 1.0
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:4096 ~read_only:false);
  Alcotest.(check (float 1e-9)) "4KB RO read = 1/2 token" 0.5
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:4096 ~read_only:true);
  Alcotest.(check (float 1e-9)) "4KB write = 10 tokens" 10.0
    (Cost_model.request_cost model_a ~kind:Io_op.Write ~bytes:4096 ~read_only:false);
  (* Paper: a 32KB request costs as much as 8 back-to-back 4KB requests. *)
  Alcotest.(check (float 1e-9)) "32KB read = 8 tokens" 8.0
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:32768 ~read_only:false);
  (* Cost is constant for requests 4KB and smaller. *)
  Alcotest.(check (float 1e-9)) "1KB read = 1 token" 1.0
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:1024 ~read_only:false)

let test_weighted_rate_paper_example () =
  (* Paper SS3.2.2: 100K IOPS at 80% reads, write cost 10
     -> 0.8*100K*1 + 0.2*100K*10 = 280K tokens/s. *)
  Alcotest.(check (float 1.0)) "280K tokens/s" 280_000.0
    (Cost_model.weighted_rate model_a ~iops:100_000.0 ~read_ratio:0.8);
  (* Scenario 1, tenant B: 70K IOPS at 80% reads -> 196K tokens/s. *)
  Alcotest.(check (float 1.0)) "196K tokens/s" 196_000.0
    (Cost_model.weighted_rate model_a ~iops:70_000.0 ~read_ratio:0.8)

(* ------------------------------------------------------------------ *)
(* Global_bucket                                                      *)
(* ------------------------------------------------------------------ *)

(* The scheduler round updates the bucket's level in place; tests seed
   it through the same cell. *)
let bucket_add global x =
  let c = Global_bucket.cell global in
  c.v <- c.v +. x

let no_submit _ = ()

let test_bucket_add_take () =
  (* A BE tenant with no rate of its own takes what its deficit needs
     from the bucket, never more than the level.  Two threads, so this
     thread's marks alone never reset the bucket. *)
  let b = Global_bucket.create ~n_threads:2 in
  let sched = Scheduler.create ~global:b ~thread_id:0 () in
  let be = Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:0.0 in
  Scheduler.add_tenant sched be;
  bucket_add b 10.0;
  Alcotest.(check (float 1e-9)) "level" 10.0 (Global_bucket.level b);
  Scheduler.enqueue sched ~tenant_id:1 ~cost:4.0 ();
  Alcotest.(check int) "paid from the bucket" 1
    (Scheduler.schedule sched ~now:Time.zero ~submit:no_submit);
  Alcotest.(check (float 1e-9)) "partial take" 6.0 (Global_bucket.level b);
  Scheduler.enqueue sched ~tenant_id:1 ~cost:100.0 ();
  Alcotest.(check int) "cannot pay 100" 0
    (Scheduler.schedule sched ~now:Time.zero ~submit:no_submit);
  Alcotest.(check (float 1e-9)) "take beyond level empties it" 0.0 (Global_bucket.level b);
  Alcotest.(check (float 1e-9)) "taken tokens held" 6.0 be.acct.tokens;
  ignore (Scheduler.schedule sched ~now:Time.zero ~submit:no_submit);
  Alcotest.(check (float 1e-9)) "empty bucket gives nothing" 6.0 be.acct.tokens

let test_bucket_reset_last_thread () =
  let b = Global_bucket.create ~n_threads:3 in
  bucket_add b 100.0;
  Alcotest.(check bool) "thread 0 marks" false (Global_bucket.mark_round b ~thread_id:0);
  Alcotest.(check bool) "thread 2 marks" false (Global_bucket.mark_round b ~thread_id:2);
  Alcotest.(check (float 1e-9)) "not reset yet" 100.0 (Global_bucket.level b);
  Alcotest.(check bool) "last thread resets" true (Global_bucket.mark_round b ~thread_id:1);
  Alcotest.(check (float 1e-9)) "reset to zero" 0.0 (Global_bucket.level b);
  Alcotest.(check int) "reset counted" 1 (Global_bucket.resets b);
  (* Marks clear after a reset: a full new round is needed. *)
  bucket_add b 5.0;
  Alcotest.(check bool) "fresh round" false (Global_bucket.mark_round b ~thread_id:0);
  Alcotest.(check (float 1e-9)) "still there" 5.0 (Global_bucket.level b)

(* ------------------------------------------------------------------ *)
(* Tenant                                                             *)
(* ------------------------------------------------------------------ *)

let lc_slo = Slo.latency_critical ~latency_us:500 ~iops:100_000.0 ~read_pct:80

let test_tenant_queue () =
  let t = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0 in
  Alcotest.(check (float 1e-9)) "no demand" 0.0 t.acct.demand;
  Tenant.enqueue t ~cost:1.0 "a";
  Tenant.enqueue t ~cost:10.0 "b";
  Alcotest.(check (float 1e-9)) "demand sums costs" 11.0 t.acct.demand;
  Alcotest.(check (float 1e-9)) "fifo cost" 1.0 t.costs.(t.head);
  Alcotest.(check string) "fifo value" "a" (Tenant.dequeue t);
  Alcotest.(check (float 1e-9)) "demand shrinks" 10.0 t.acct.demand;
  Alcotest.(check int) "length" 1 (Tenant.queue_length t)

let test_tenant_pos_limit_window () =
  (* An idle LC tenant at 10 tokens/s, rounds 1, 2, 3 and 4 s apart:
     grants 10, 20, 30, 40 (the first round grants nothing).  The balance
     may reach POS_LIMIT, the last three rounds' grants, before 90% of it
     is donated. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  let t = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:10.0 in
  Scheduler.add_tenant sched t;
  List.iter
    (fun s -> ignore (Scheduler.schedule sched ~now:(Time.sec s) ~submit:no_submit))
    [ 0; 1; 3; 6 ];
  Alcotest.(check (float 1e-9)) "3-round sum held" 60.0 t.acct.tokens;
  Alcotest.(check (float 1e-9)) "nothing donated" 0.0 (Global_bucket.level global);
  ignore (Scheduler.schedule sched ~now:(Time.sec 10) ~submit:no_submit);
  (* Oldest (10) falls out of the window: 100 > 20+30+40 = 90. *)
  Alcotest.(check (float 1e-9)) "sliding window donates" 90.0 (Global_bucket.level global);
  Alcotest.(check (float 1e-9)) "10% kept" 10.0 t.acct.tokens

let test_tenant_tokens () =
  (* An LC tenant may spend into deficit; an idle BE tenant's balance is
     drained into the bucket. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  let lc = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:0.0 in
  let be = Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:10.0 in
  Scheduler.add_tenant sched lc;
  Scheduler.add_tenant sched be;
  Scheduler.enqueue sched ~tenant_id:1 ~cost:7.0 ();
  ignore (Scheduler.schedule sched ~now:Time.zero ~submit:no_submit);
  Alcotest.(check (float 1e-9)) "can go negative" (-7.0) lc.acct.tokens;
  ignore (Scheduler.schedule sched ~now:(Time.sec 1) ~submit:no_submit);
  Alcotest.(check (float 1e-9)) "drain" 10.0 (Global_bucket.level global);
  Alcotest.(check (float 1e-9)) "drained" 0.0 be.acct.tokens

(* ------------------------------------------------------------------ *)
(* Scheduler (Algorithm 1)                                            *)
(* ------------------------------------------------------------------ *)

(* Drive [rounds] scheduling rounds at [round_us] spacing; before each
   round, [feed round_idx sched] may enqueue requests.  Returns the list
   of submissions in order. *)
let run_rounds ?(rounds = 100) ?(round_us = 100) sched ~feed =
  let out = ref [] in
  for i = 0 to rounds - 1 do
    feed i sched;
    let now = Time.us ((i + 1) * round_us) in
    ignore (Scheduler.schedule sched ~now ~submit:(fun s -> out := s :: !out))
  done;
  List.rev !out

let new_sched ?neg_limit ?notify ?(n_threads = 1) ?(thread_id = 0) () =
  let global = Global_bucket.create ~n_threads in
  let sched =
    Scheduler.create ?neg_limit ~global ~thread_id ?notify_control_plane:notify ()
  in
  (global, sched)

(* The tests below enqueue each tenant's requests with its id as the
   payload, so a submission names its tenant. *)
let count_for id subs = List.length (List.filter (( = ) id) subs)

let test_lc_within_slo_all_submitted () =
  (* An LC tenant issuing exactly its reserved rate gets everything
     through: 100 rounds x 100us, rate 280K tokens/s = 28 tokens/round;
     feed 20 x 1-token reads per round. *)
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 20 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 ()
        done)
  in
  Alcotest.(check int) "all requests submitted" 2000 (List.length subs);
  Alcotest.(check (float 1e-6)) "no backlog" 0.0 (Scheduler.backlog sched)

let test_lc_rate_limited_at_neg_limit () =
  (* An LC tenant demanding far beyond its reservation is throttled to
     roughly its token rate (plus the bounded NEG_LIMIT burst). *)
  let notified = ref 0 in
  let _, sched = new_sched ~notify:(fun _ -> incr notified) () in
  (* 10K tokens/s = 1 token/round at 100us rounds. *)
  Scheduler.add_tenant sched
    (Tenant.create ~id:1
       ~slo:(Slo.latency_critical ~latency_us:500 ~iops:10_000.0 ~read_pct:100)
       ~token_rate:10_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 20 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:3.0 ()
        done)
  in
  (* Generated: 99 rounds x 1 token (the first round generates none as
     there is no prior timestamp), plus the 50-token deficit allowance:
     ~149 tokens for 3-token requests -> ~50 submissions. *)
  let n = List.length subs in
  Alcotest.(check bool) (Printf.sprintf "throttled (%d in [45,60])" n) true (n >= 45 && n <= 60);
  Alcotest.(check bool) "control plane notified of deficit" true (!notified > 0)

let test_lc_writes_cost_more () =
  (* With write cost 10, an 80%-read LC tenant fed uniformly needs its
     weighted rate; at half that rate only about half the requests go. *)
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:140_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        (* 28 tokens of demand per round: 20 reads + 2 writes at 10. *)
        for _ = 1 to 16 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 ()
        done;
        Scheduler.enqueue s ~tenant_id:1 ~cost:10.0 ();
        Scheduler.enqueue s ~tenant_id:1 ~cost:10.0 ())
  in
  (* 14 tokens/round generated vs 36 demanded: ~40% served. *)
  let served = float_of_int (List.length subs) /. 1800.0 in
  Alcotest.(check bool)
    (Printf.sprintf "served fraction %.2f in [0.3,0.5]" served)
    true
    (served > 0.3 && served < 0.5)

let test_lc_spare_tokens_donated () =
  (* An idle LC tenant's accumulating balance must overflow into the
     global bucket once past POS_LIMIT (90% donation).  Two threads, so
     this thread's round marks never reset the bucket alone. *)
  let global, sched = new_sched ~n_threads:2 () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  for i = 1 to 10 do
    ignore (Scheduler.schedule sched ~now:(Time.us (i * 100)) ~submit:(fun _ -> ()))
  done;
  (* 9 grants of 28 tokens with no demand: balance capped near POS_LIMIT
     (3 rounds' grants = 84), the rest donated. *)
  Alcotest.(check bool)
    (Printf.sprintf "donations in bucket (%.1f > 50)" (Global_bucket.level global))
    true
    (Global_bucket.level global > 50.0)

let test_be_fair_sharing () =
  (* Two BE tenants with equal rates and saturating demand split service
     evenly. *)
  let _, sched = new_sched () in
  let be_slo = Slo.best_effort () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:be_slo ~token_rate:50_000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:be_slo ~token_rate:50_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 20 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 1;
          Scheduler.enqueue s ~tenant_id:2 ~cost:1.0 2
        done)
  in
  let c1 = count_for 1 subs and c2 = count_for 2 subs in
  Alcotest.(check bool)
    (Printf.sprintf "even split (%d vs %d)" c1 c2)
    true
    (abs (c1 - c2) <= c1 / 20);
  (* 5 tokens/round each -> ~500 submissions each. *)
  Alcotest.(check bool) "rate respected" true (c1 <= 550 && c1 >= 450)

let test_be_no_burst_after_idle () =
  (* DRR rule: a BE tenant idle for many rounds must not accumulate
     tokens and burst later. *)
  let _, sched = new_sched () in
  Scheduler.add_tenant sched
    (Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:100_000.0);
  (* 50 idle rounds (10 tokens/round generated, all flushed), then heavy
     demand: the first busy round may spend only that round's grant. *)
  let subs =
    run_rounds ~rounds:51 sched ~feed:(fun i s ->
        if i = 50 then
          for _ = 1 to 1000 do
            Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 ()
          done)
  in
  let n = List.length subs in
  Alcotest.(check bool)
    (Printf.sprintf "no post-idle burst (%d <= 12)" n)
    true (n <= 12)

let test_be_claims_lc_leftovers () =
  (* Work conservation: an idle LC tenant's tokens flow via the global
     bucket to a BE tenant with zero own rate. *)
  let global = Global_bucket.create ~n_threads:2 (* avoid same-round reset *) in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 40 do
          Scheduler.enqueue s ~tenant_id:2 ~cost:1.0 2
        done)
  in
  let c2 = count_for 2 subs in
  (* LC generates 28/round and donates 90% once above POS_LIMIT; BE should
     capture a large share of ~2770 generated tokens. *)
  Alcotest.(check bool) (Printf.sprintf "BE served from donations (%d > 1500)" c2) true (c2 > 1500)

let test_be_round_robin_rotates () =
  (* With a single token/round in the bucket, the BE that gets it must
     rotate across rounds. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let winners = ref [] in
  for i = 1 to 10 do
    bucket_add global 1.0;
    (if Scheduler.find_tenant sched 1 <> None then
       match Scheduler.find_tenant sched 1 with
       | Some t1 when t1.acct.demand = 0.0 -> Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 1
       | _ -> ());
    (match Scheduler.find_tenant sched 2 with
    | Some t2 when t2.acct.demand = 0.0 -> Scheduler.enqueue sched ~tenant_id:2 ~cost:1.0 2
    | _ -> ());
    ignore
      (Scheduler.schedule sched ~now:(Time.us (i * 100))
         ~submit:(fun id -> winners := id :: !winners))
  done;
  let w1 = List.length (List.filter (( = ) 1) !winners) in
  let w2 = List.length (List.filter (( = ) 2) !winners) in
  Alcotest.(check bool)
    (Printf.sprintf "both win some (%d vs %d)" w1 w2)
    true
    (w1 >= 3 && w2 >= 3)

let test_multi_thread_token_exchange () =
  (* Spare LC tokens on thread 0 serve BE demand on thread 1 — the
     cross-thread sharing of SS4.1. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched0 = Scheduler.create ~global ~thread_id:0 () in
  let sched1 = Scheduler.create ~global ~thread_id:1 () in
  Scheduler.add_tenant sched0 (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  Scheduler.add_tenant sched1 (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let be_count = ref 0 in
  for i = 1 to 100 do
    for _ = 1 to 40 do
      Scheduler.enqueue sched1 ~tenant_id:2 ~cost:1.0 ()
    done;
    ignore (Scheduler.schedule sched0 ~now:(Time.us (i * 100)) ~submit:(fun _ -> ()));
    ignore
      (Scheduler.schedule sched1 ~now:(Time.us (i * 100)) ~submit:(fun _ -> incr be_count))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cross-thread donations consumed (%d > 1000)" !be_count)
    true (!be_count > 1000);
  Alcotest.(check bool) "bucket reset happened" true (Global_bucket.resets global > 10)

let test_remove_tenant () =
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:1000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  Alcotest.(check int) "two tenants" 2 (Scheduler.tenant_count sched);
  Scheduler.remove_tenant sched 1;
  Alcotest.(check int) "one left" 1 (Scheduler.tenant_count sched);
  Alcotest.(check bool) "gone" true (Scheduler.find_tenant sched 1 = None);
  Alcotest.check_raises "enqueue to removed tenant" Not_found (fun () ->
      Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 ())

let test_remove_tenant_preserves_order_and_cursor () =
  (* Remove BE tenants from the middle of a rotating set: the compaction
     must preserve insertion order and the cursor must stay within the
     shrunk set so round-robin service continues over the survivors. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  for id = 1 to 5 do
    Scheduler.add_tenant sched (Tenant.create ~id ~slo:(Slo.best_effort ()) ~token_rate:0.0)
  done;
  (* Advance the cursor near the end of the set... *)
  for i = 1 to 4 do
    ignore (Scheduler.schedule sched ~now:(Time.us (i * 100)) ~submit:(fun _ -> ()))
  done;
  (* ...then shrink the set below it. *)
  Scheduler.remove_tenant sched 3;
  Scheduler.remove_tenant sched 5;
  Scheduler.remove_tenant sched 1;
  Alcotest.(check (list int)) "order preserved" [ 2; 4 ]
    (List.map Tenant.id (Scheduler.tenants sched));
  (* Survivors still rotate: with one token per round, both must win. *)
  let winners = ref [] in
  for i = 5 to 14 do
    bucket_add global 1.0;
    List.iter
      (fun id ->
        match Scheduler.find_tenant sched id with
        | Some t when t.acct.demand = 0.0 -> Scheduler.enqueue sched ~tenant_id:id ~cost:1.0 id
        | _ -> ())
      [ 2; 4 ];
    ignore
      (Scheduler.schedule sched ~now:(Time.us (i * 100))
         ~submit:(fun id -> winners := id :: !winners))
  done;
  let w2 = List.length (List.filter (( = ) 2) !winners) in
  let w4 = List.length (List.filter (( = ) 4) !winners) in
  Alcotest.(check bool)
    (Printf.sprintf "round-robin over survivors (%d vs %d)" w2 w4)
    true
    (w2 >= 3 && w4 >= 3);
  (* Removing everything resets cleanly; unknown ids are a no-op. *)
  Scheduler.remove_tenant sched 2;
  Scheduler.remove_tenant sched 4;
  Scheduler.remove_tenant sched 99;
  Alcotest.(check int) "empty" 0 (Scheduler.tenant_count sched);
  ignore (Scheduler.schedule sched ~now:(Time.us 10_000) ~submit:(fun _ -> ()))

(* Words allocated per [Scheduler.schedule] round over [n_lc] LC and
   [n_be] BE idle tenants, averaged over 1,000 rounds after 10 warm-up
   rounds.  One thread, so every round also donates, drains and resets
   the bucket. *)
let words_per_round ~n_lc ~n_be =
  let global = Global_bucket.create ~n_threads:1 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  for id = 1 to n_lc do
    Scheduler.add_tenant sched (Tenant.create ~id ~slo:lc_slo ~token_rate:280_000.0)
  done;
  for id = n_lc + 1 to n_lc + n_be do
    Scheduler.add_tenant sched (Tenant.create ~id ~slo:(Slo.best_effort ()) ~token_rate:50_000.0)
  done;
  (* Boxed times built up front, so the timed loop allocates only what
     the rounds do. *)
  let times = Array.init 1010 (fun i -> Time.us ((i + 1) * 100)) in
  for i = 0 to 9 do
    ignore (Scheduler.schedule sched ~now:times.(i) ~submit:no_submit)
  done;
  let w0 = Gc.minor_words () in
  for i = 10 to 1009 do
    ignore (Scheduler.schedule sched ~now:times.(i) ~submit:no_submit)
  done;
  (Gc.minor_words () -. w0) /. 1000.0

(* The round allocates nothing: exactly 0 words per round at 20 tenants
   and at 2564, so nothing grows with the tenant count either.  Run under
   both build profiles ([make alloc-gate] runs it alone in release). *)
let test_round_allocation_free () =
  Alcotest.(check (float 0.0)) "words per round at 20 tenants" 0.0 (words_per_round ~n_lc:16 ~n_be:4);
  Alcotest.(check (float 0.0)) "words per round at 2564 tenants" 0.0
    (words_per_round ~n_lc:2500 ~n_be:64)

let recomputed_backlog sched =
  List.fold_left (fun acc (t : _ Tenant.t) -> acc +. t.acct.demand) 0.0 (Scheduler.tenants sched)

let test_backlog_aggregate_tracks_demand () =
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let check msg =
    Alcotest.(check (float 1e-6)) msg (recomputed_backlog sched) (Scheduler.backlog sched)
  in
  check "empty";
  Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 ();
  Scheduler.enqueue sched ~tenant_id:2 ~cost:10.0 ();
  check "after enqueues";
  Alcotest.(check (float 1e-6)) "sums costs" 11.0 (Scheduler.backlog sched);
  (* A direct drain, bypassing the scheduler: the tenant moves
     the scheduler's backlog cell itself. *)
  (match Scheduler.find_tenant sched 2 with
  | Some t -> ignore (Tenant.dequeue t)
  | None -> Alcotest.fail "tenant 2 missing");
  check "after direct dequeue";
  ignore (Scheduler.schedule sched ~now:(Time.us 100) ~submit:(fun _ -> ()));
  ignore (Scheduler.schedule sched ~now:(Time.us 200) ~submit:(fun _ -> ()));
  check "after scheduling rounds";
  Scheduler.enqueue sched ~tenant_id:1 ~cost:2.5 ();
  Scheduler.remove_tenant sched 1;
  check "after removing a tenant with queued demand";
  Alcotest.(check (float 1e-6)) "zero once queues empty" 0.0 (Scheduler.backlog sched)

(* The backlog cell under random enqueues, rounds, removals, direct
   dequeues, drains (empty the queue directly, then remove) and
   re-adds: it equals the clamped sum of the members' demand,
   and a removed tenant's later enqueues do not move it.  Costs are
   multiples of 0.5, so every sum is exact and the check is equality. *)
let prop_backlog_aggregate_consistent =
  QCheck.Test.make ~name:"backlog aggregate matches recomputed demand" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 100) (triple (int_range 0 5) (int_range 1 4) (int_range 1 4)))
    (fun ops ->
      let global = Global_bucket.create ~n_threads:2 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      let fresh id =
        Tenant.create ~id
          ~slo:(if id mod 2 = 0 then Slo.best_effort () else lc_slo)
          ~token_rate:20_000.0
      in
      for id = 1 to 4 do
        Scheduler.add_tenant sched (fresh id)
      done;
      let detached = Hashtbl.create 4 in
      let detach id =
        match Scheduler.find_tenant sched id with
        | Some t ->
          Hashtbl.replace detached id t;
          Scheduler.remove_tenant sched id
        | None -> ()
      in
      let round = ref 0 in
      List.for_all
        (fun (op, id, k) ->
          let cost = 0.5 *. float_of_int k in
          (match op with
          | 0 -> (
            try Scheduler.enqueue sched ~tenant_id:id ~cost () with Not_found -> ())
          | 1 ->
            incr round;
            ignore (Scheduler.schedule sched ~now:(Time.us (!round * 100)) ~submit:no_submit)
          | 2 -> detach id
          | 3 -> (
            match Scheduler.find_tenant sched id with
            | Some t when Tenant.queue_length t > 0 -> ignore (Tenant.dequeue t)
            | Some _ | None -> ())
          | 4 ->
            (match Scheduler.find_tenant sched id with
            | Some t ->
              while Tenant.queue_length t > 0 do
                ignore (Tenant.dequeue t)
              done
            | None -> ());
            detach id
          | _ ->
            if Scheduler.find_tenant sched id = None then begin
              let t = Option.value (Hashtbl.find_opt detached id) ~default:(fresh id) in
              Hashtbl.remove detached id;
              Scheduler.add_tenant sched t
            end);
          let members = Float.max 0.0 (recomputed_backlog sched) in
          let sum_ok = Scheduler.backlog sched = members in
          let detached_ok =
            match Hashtbl.find_opt detached id with
            | None -> true
            | Some t ->
              let before = Scheduler.backlog sched in
              Tenant.enqueue t ~cost ();
              Scheduler.backlog sched = before
          in
          sum_ok && detached_ok)
        ops)

(* Token conservation: across any demand pattern, the total cost submitted
   never exceeds tokens generated (LC rates + BE rates) plus the bounded
   LC deficit allowance. *)
let prop_token_conservation =
  QCheck.Test.make ~name:"scheduler never oversubmits generated tokens" ~count:60
    QCheck.(
      pair
        (pair (int_range 1 40) (int_range 1 40)) (* lc rate, be rate in tokens/round *)
        (list_of_size Gen.(int_range 1 60) (pair (int_range 0 30) (int_range 0 30))))
    (fun ((lc_rate, be_rate), demands) ->
      let global = Global_bucket.create ~n_threads:2 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      (* Rates are per 100us round: tokens/s = per-round * 10_000. *)
      let lc =
        Tenant.create ~id:1
          ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100)
          ~token_rate:(float_of_int lc_rate *. 10_000.0)
      in
      let be =
        Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:(float_of_int be_rate *. 10_000.0)
      in
      Scheduler.add_tenant sched lc;
      Scheduler.add_tenant sched be;
      (* Each request's payload is its cost. *)
      let submitted = ref 0.0 in
      List.iteri
        (fun i (d_lc, d_be) ->
          for _ = 1 to d_lc do
            Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 1.0
          done;
          for _ = 1 to d_be do
            Scheduler.enqueue sched ~tenant_id:2 ~cost:1.0 1.0
          done;
          ignore
            (Scheduler.schedule sched
               ~now:(Time.us ((i + 1) * 100))
               ~submit:(fun cost -> submitted := !submitted +. cost)))
        demands;
      let rounds = float_of_int (List.length demands - 1) in
      let generated = rounds *. float_of_int (lc_rate + be_rate) in
      (* +50 for the LC deficit allowance, +epsilon for float slack. *)
      !submitted <= generated +. 50.0 +. 1e-6)

(* BE tenants may never drive their balance negative. *)
let prop_be_never_negative =
  QCheck.Test.make ~name:"BE token balance never goes negative" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 20))
    (fun demands ->
      let global = Global_bucket.create ~n_threads:1 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      let be = Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:30_000.0 in
      Scheduler.add_tenant sched be;
      List.iteri
        (fun i d ->
          for _ = 1 to d do
            Scheduler.enqueue sched ~tenant_id:1 ~cost:2.5 ()
          done;
          ignore (Scheduler.schedule sched ~now:(Time.us ((i + 1) * 100)) ~submit:(fun _ -> ())))
        demands;
      be.acct.tokens >= 0.0)

(* Per-tenant FIFO: the scheduler may interleave tenants, but one
   tenant's requests are always submitted in arrival order. *)
let prop_per_tenant_fifo =
  QCheck.Test.make ~name:"scheduler preserves per-tenant FIFO order" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 1 3) (int_range 1 5)))
    (fun batches ->
      let global = Global_bucket.create ~n_threads:1 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      for id = 1 to 3 do
        Scheduler.add_tenant sched
          (Tenant.create ~id
             ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100)
             ~token_rate:200_000.0)
      done;
      let seq = ref 0 in
      let out = Hashtbl.create 3 in
      List.iteri
        (fun round (tenant_id, n) ->
          for _ = 1 to n do
            incr seq;
            Scheduler.enqueue sched ~tenant_id ~cost:1.0 (tenant_id, !seq)
          done;
          ignore
            (Scheduler.schedule sched
               ~now:(Time.us ((round + 1) * 100))
               ~submit:(fun (tenant_id, seq) ->
                 let prev = Option.value (Hashtbl.find_opt out tenant_id) ~default:[] in
                 Hashtbl.replace out tenant_id (seq :: prev))))
        batches;
      Hashtbl.fold
        (fun _ submitted ok ->
          let in_order l = List.sort compare l = l in
          ok && in_order (List.rev submitted))
        out true)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ("slo", [ Alcotest.test_case "constructors" `Quick test_slo_constructors ]);
    ( "cost_model",
      [
        Alcotest.test_case "basic costs" `Quick test_cost_basic;
        Alcotest.test_case "weighted rate (paper example)" `Quick test_weighted_rate_paper_example;
      ] );
    ( "global_bucket",
      [
        Alcotest.test_case "add/take" `Quick test_bucket_add_take;
        Alcotest.test_case "last thread resets" `Quick test_bucket_reset_last_thread;
      ] );
    ( "tenant",
      [
        Alcotest.test_case "queue accounting" `Quick test_tenant_queue;
        Alcotest.test_case "POS_LIMIT window" `Quick test_tenant_pos_limit_window;
        Alcotest.test_case "token balance" `Quick test_tenant_tokens;
      ] );
    ( "scheduler",
      [
        Alcotest.test_case "LC within SLO fully served" `Quick test_lc_within_slo_all_submitted;
        Alcotest.test_case "LC throttled at NEG_LIMIT" `Quick test_lc_rate_limited_at_neg_limit;
        Alcotest.test_case "writes consume 10x tokens" `Quick test_lc_writes_cost_more;
        Alcotest.test_case "LC spare tokens donated" `Quick test_lc_spare_tokens_donated;
        Alcotest.test_case "BE fair sharing" `Quick test_be_fair_sharing;
        Alcotest.test_case "BE no burst after idle (DRR)" `Quick test_be_no_burst_after_idle;
        Alcotest.test_case "BE claims LC leftovers" `Quick test_be_claims_lc_leftovers;
        Alcotest.test_case "BE round-robin rotates" `Quick test_be_round_robin_rotates;
        Alcotest.test_case "cross-thread token exchange" `Quick test_multi_thread_token_exchange;
        Alcotest.test_case "tenant removal" `Quick test_remove_tenant;
        Alcotest.test_case "removal preserves order & cursor" `Quick
          test_remove_tenant_preserves_order_and_cursor;
        Alcotest.test_case "backlog aggregate tracks demand" `Quick
          test_backlog_aggregate_tracks_demand;
        qcheck prop_token_conservation;
        qcheck prop_be_never_negative;
        qcheck prop_per_tenant_fifo;
        qcheck prop_backlog_aggregate_consistent;
      ] );
    ("alloc", [ Alcotest.test_case "round allocation-free" `Quick test_round_allocation_free ]);
  ]
