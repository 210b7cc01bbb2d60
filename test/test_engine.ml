(* Unit and property tests for the DES kernel. *)

open Reflex_engine

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time                                                               *)
(* ------------------------------------------------------------------ *)

let test_time_constructors () =
  Alcotest.(check int64) "us" 1_000L (Time.us 1);
  Alcotest.(check int64) "ms" 1_000_000L (Time.ms 1);
  Alcotest.(check int64) "sec" 1_000_000_000L (Time.sec 1);
  Alcotest.(check int64) "of_float_us rounds" 1_500L (Time.of_float_us 1.5);
  check_float "to_float_us" 2.5 (Time.to_float_us 2_500L)

let test_time_arith () =
  Alcotest.(check int64) "add" 30L (Time.add 10L 20L);
  Alcotest.(check int64) "sub" 10L (Time.sub 30L 20L);
  Alcotest.(check int64) "scale" 15L (Time.scale 10L 1.5);
  Alcotest.(check bool) "lt" true Time.(5L < 6L);
  Alcotest.(check bool) "ge" true Time.(6L >= 6L);
  Alcotest.(check int64) "max" 6L (Time.max 5L 6L);
  Alcotest.(check int64) "min" 5L (Time.min 5L 6L)

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.ns 500));
  Alcotest.(check string) "us" "12.00us" (Time.to_string (Time.us 12));
  Alcotest.(check string) "ms" "3.00ms" (Time.to_string (Time.ms 3))

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 42L in
  let c = Prng.split a in
  let x = Prng.bits64 a and y = Prng.bits64 c in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal x y))

(* Known answers: the first eight draws of each kind from seed 2017.
   The float values are exact (hex literals), so any change to the
   stream, or to the arithmetic a draw applies to it, fails here first. *)
let test_prng_known_answers () =
  let first8 f =
    let p = Prng.create 2017L in
    List.init 8 (fun _ -> f p)
  in
  Alcotest.(check (list int64))
    "bits64"
    [
      -4214187333128637937L; -8059565770333756656L; -4755908852750610932L;
      8360096236963352238L; -5043269586985211092L; -4818635597706386312L;
      -2955213805258531314L; -5415797042487299005L;
    ]
    (first8 Prng.bits64);
  Alcotest.(check (list int))
    "int 1_000_000"
    [ 456839; 897480; 470342; 676119; 170262; 582652; 510151; 126305 ]
    (first8 (fun p -> Prng.int p 1_000_000));
  Alcotest.(check (list (float 0.0)))
    "float"
    [
      0x1.8b0865e57fd56p-1; 0x1.204d57443eb7cp-1; 0x1.7bff3c314f541p-1; 0x1.d0141cef711f2p-2;
      0x1.74056a0fe26e5p-1; 0x1.7a4188e881514p-1; 0x1.adf9f1672c783p-1; 0x1.69ae729165ddep-1;
    ]
    (first8 Prng.float);
  Alcotest.(check (list (float 0.0)))
    "lognormal median 1 sigma 0.25"
    [
      0x1.587b499f0ce07p-1; 0x1.594864a25dcf3p-1; 0x1.f1af61724c1d3p-1; 0x1.c1d998175f746p-1;
      0x1.e80a570b64e9cp-1; 0x1.845e8d28d0fd5p+0; 0x1.36ac5f3fe466fp+0; 0x1.6ca43489ed615p-1;
    ]
    (first8 (fun p -> Prng.lognormal p ~median:1.0 ~sigma:0.25))

let test_prng_float_range () =
  let p = Prng.create 7L in
  for _ = 1 to 10_000 do
    let x = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_exponential_mean () =
  let p = Prng.create 11L in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f close to 50" mean)
    true
    (abs_float (mean -. 50.0) < 1.0)

let test_prng_normal_moments () =
  let p = Prng.create 13L in
  let n = 200_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.normal p ~mean:10.0 ~stddev:3.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~10" true (abs_float (mean -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev ~3" true (abs_float (sqrt var -. 3.0) < 0.1)

let test_prng_zipf_skew () =
  let p = Prng.create 17L in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let i = Prng.zipf p ~n:100 ~theta:0.99 in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank 10 > rank 90" true (counts.(10) > counts.(90))

let test_prng_bool_bias () =
  let p = Prng.create 19L in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.bool p 0.25 then incr hits
  done;
  let frac = float_of_int !hits /. 100_000.0 in
  Alcotest.(check bool) "p=0.25 respected" true (abs_float (frac -. 0.25) < 0.01)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int in [0,n)" ~count:1000
    QCheck.(pair int64 (int_range 1 10_000))
    (fun (seed, n) ->
      let p = Prng.create seed in
      let x = Prng.int p n in
      x >= 0 && x < n)

(* ------------------------------------------------------------------ *)
(* Int_fifo                                                           *)
(* ------------------------------------------------------------------ *)

(* Random pushes and pops (a pop on an empty FIFO is skipped) agree with
   Stdlib's Queue, across ring growth and wrap-around. *)
let prop_int_fifo_matches_queue =
  QCheck.Test.make ~name:"Int_fifo matches Queue" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (option small_nat))
    (fun ops ->
      let f = Int_fifo.create () and q = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
            Int_fifo.push f x;
            Queue.add x q
          | None ->
            if not (Queue.is_empty q) then begin
              let head = Int_fifo.peek f in
              let popped = Int_fifo.pop f in
              assert (head = popped && popped = Queue.pop q)
            end);
          Int_fifo.length f = Queue.length q)
        ops)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:30L ~seq:0 "c";
  Heap.push h ~time:10L ~seq:1 "a";
  Heap.push h ~time:20L ~seq:2 "b";
  let pop () =
    match Heap.pop h with Some (_, _, v) -> v | None -> Alcotest.fail "empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5L ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, _, v) -> Alcotest.(check int) "FIFO at equal time" i v
    | None -> Alcotest.fail "empty"
  done

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (int_range 0 1_000_000))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i x -> Heap.push h ~time:(Int64.of_int x) ~seq:i ()) times;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, _, ()) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let sorted = List.sort Int64.compare (List.map Int64.of_int times) in
      popped = sorted)

let test_heap_pop_if_le_horizon () =
  let h = Heap.create () in
  Heap.push h ~time:10L ~seq:0 "a";
  Heap.push h ~time:20L ~seq:1 "b";
  Alcotest.(check bool) "min beyond horizon" true (Heap.pop_if_le h ~until:5L = None);
  Alcotest.(check int) "nothing popped" 2 (Heap.length h);
  (match Heap.pop_if_le h ~until:10L with
  | Some (10L, _, "a") -> ()
  | _ -> Alcotest.fail "expected (10, a) at an inclusive horizon");
  (match Heap.pop_if_le h ~until:Time.infinity with
  | Some (20L, _, "b") -> ()
  | _ -> Alcotest.fail "expected (20, b)");
  Alcotest.(check bool) "empty heap" true (Heap.pop_if_le h ~until:Time.infinity = None)

(* The reference semantics pop_if_le must match: a peek guard before pop. *)
let guarded_pop h ~until =
  match Heap.peek h with
  | Some (t, _, _) when Time.compare t until <= 0 -> Heap.pop h
  | _ -> None

let prop_heap_pop_if_le_matches_guarded_pop =
  QCheck.Test.make ~name:"pop_if_le = peek guard + pop" ~count:300
    QCheck.(
      pair
        (list (int_range 0 1_000))
        (list_of_size Gen.(int_range 1 64) (int_range 0 1_000)))
    (fun (times, probes) ->
      (* Two heaps with identical pushes; probe one with pop_if_le and the
         other with the two-step reference, at the same horizons. *)
      let h1 = Heap.create () and h2 = Heap.create () in
      List.iteri
        (fun i x ->
          Heap.push h1 ~time:(Int64.of_int x) ~seq:i i;
          Heap.push h2 ~time:(Int64.of_int x) ~seq:i i)
        times;
      List.for_all
        (fun u ->
          let until = Int64.of_int u in
          Heap.pop_if_le h1 ~until = guarded_pop h2 ~until)
        probes
      && Heap.length h1 = Heap.length h2)

let test_heap_clear_releases_values () =
  let h = Heap.create () in
  let w = Weak.create 4 in
  for i = 0 to 3 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h ~time:(Int64.of_int i) ~seq:i v
  done;
  Heap.clear h;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool) "cleared value collected" false (Weak.check w i)
  done;
  Alcotest.(check int) "empty after clear" 0 (Heap.length h);
  Heap.push h ~time:1L ~seq:0 (ref 9);
  (match Heap.pop h with
  | Some (1L, 0, { contents = 9 }) -> ()
  | _ -> Alcotest.fail "heap unusable after clear")

let test_heap_pop_blanks_slots () =
  let h = Heap.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h ~time:(Int64.of_int i) ~seq:i v
  done;
  for _ = 0 to 7 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  (* Draining the heap blanks vacated slots; only the final pop may leave
     one stale reference in slot 0. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d live after drain (at most 1)" !live)
    true (!live <= 1)

let test_heap_clear_keeps_capacity () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h ~time:(Int64.of_int i) ~seq:i i
  done;
  let cap = Heap.capacity h in
  Alcotest.(check bool) "grown beyond seed" true (cap >= 100);
  Heap.clear h;
  Alcotest.(check int) "capacity preserved by clear" cap (Heap.capacity h);
  Alcotest.(check int) "empty after clear" 0 (Heap.length h);
  for i = 0 to 99 do
    Heap.push h ~time:(Int64.of_int i) ~seq:i i
  done;
  Alcotest.(check int) "no re-growth on refill" cap (Heap.capacity h)

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim (Time.us 30) (fun () -> log := 3 :: !log));
  ignore (Sim.at sim (Time.us 10) (fun () -> log := 1 :: !log));
  ignore (Sim.at sim (Time.us 20) (fun () -> log := 2 :: !log));
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "events in time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" (Time.us 30) (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.at sim (Time.us 10) (fun () -> fired := true) in
  Sim.cancel sim ev;
  ignore (Sim.run sim);
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_sim_cancel_releases_closure () =
  (* Cancelling blanks the heap slot's action immediately: the closure's
     environment must become collectable before the heap ever pops the
     dead event (retry timers cancel on every successful completion, so
     this window can hold thousands of events). *)
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  let ev =
    let payload = Bytes.create 4096 in
    Weak.set weak 0 (Some payload);
    Sim.at sim (Time.ms 1) (fun () -> ignore (Bytes.length payload))
  in
  Gc.full_major ();
  Alcotest.(check bool) "payload pinned while scheduled" true (Weak.check weak 0);
  Sim.cancel sim ev;
  Gc.full_major ();
  Alcotest.(check bool) "cancel released the closure payload" false (Weak.check weak 0);
  ignore (Sim.run sim);
  Alcotest.(check bool) "marked cancelled" true (Sim.cancelled sim ev)

let test_sim_cancel_after_fire_noop () =
  let sim = Sim.create () in
  let n = ref 0 in
  let ev = Sim.at sim (Time.us 5) (fun () -> incr n) in
  ignore (Sim.run sim);
  Alcotest.(check int) "fired once" 1 !n;
  (* Cancelling an already-fired (or already-cancelled) event is a no-op:
     it must not raise, and must not perturb later scheduling. *)
  Sim.cancel sim ev;
  Sim.cancel sim ev;
  ignore (Sim.at sim (Time.us 10) (fun () -> incr n));
  ignore (Sim.run sim);
  Alcotest.(check int) "later events unaffected" 2 !n

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.at sim (Time.us i) (fun () -> incr count))
  done;
  ignore (Sim.run ~until:(Time.us 5) sim);
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check int) "pending remain" 5 (Sim.pending sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "rest run" 10 !count

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.at sim (Time.us 10) (fun () ->
         log := "outer" :: !log;
         ignore (Sim.after sim (Time.us 5) (fun () -> log := "inner" :: !log))));
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int64) "clock" (Time.us 15) (Sim.now sim)

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Time.us 10) (fun () -> ()));
  ignore (Sim.run sim);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sim.at: scheduling in the past (5.00us < 10.00us)") (fun () ->
      ignore (Sim.at sim (Time.us 5) (fun () -> ())))

let test_sim_every () =
  let sim = Sim.create () in
  let ticks = ref [] in
  Sim.every sim ~every:(Time.us 10) ~until:(Time.us 45) (fun t -> ticks := t :: !ticks);
  ignore (Sim.run sim);
  Alcotest.(check (list int64))
    "periodic ticks"
    [ Time.us 10; Time.us 20; Time.us 30; Time.us 40 ]
    (List.rev !ticks)

let test_sim_run_advances_clock_to_until () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Time.us 1) (fun () -> ()));
  ignore (Sim.run ~until:(Time.ms 1) sim);
  Alcotest.(check int64) "clock hits until" (Time.ms 1) (Sim.now sim)

let test_sim_every_nonpositive_raises () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Sim.every: non-positive period")
    (fun () -> Sim.every sim ~every:Time.zero ~until:(Time.us 10) (fun _ -> ()))

let test_sim_every_until_before_first_tick () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  Sim.every sim ~every:(Time.us 10) ~until:(Time.us 5) (fun _ -> incr ticks);
  ignore (Sim.run sim);
  Alcotest.(check int) "no ticks when until < first tick" 0 !ticks;
  Alcotest.(check int) "nothing left pending" 0 (Sim.pending sim)

let test_sim_every_overflow_guard () =
  (* A period of Time.infinity: the first tick lands exactly at infinity;
     computing the second would wrap int64.  The guard must stop the chain
     instead of raising "scheduling in the past" from inside the loop. *)
  let sim = Sim.create () in
  let ticks = ref 0 in
  Sim.every sim ~every:Time.infinity ~until:Time.infinity (fun _ -> incr ticks);
  ignore (Sim.run sim);
  Alcotest.(check int) "one tick, then the wrap guard stops the chain" 1 !ticks

let test_sim_live_pending_excludes_cancelled () =
  let sim = Sim.create () in
  let evs = List.init 5 (fun i -> Sim.at sim (Time.us (i + 1)) (fun () -> ())) in
  List.iteri (fun i ev -> if i < 3 then Sim.cancel sim ev) evs;
  Alcotest.(check int) "pending still counts cancelled entries" 5 (Sim.pending sim);
  Alcotest.(check int) "live_pending excludes cancelled" 2 (Sim.live_pending sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "drained" 0 (Sim.live_pending sim);
  Alcotest.(check int) "only the live two fired" 2 (Sim.events_executed sim)

let test_sim_daemon_only_stops () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim (Time.us 30) (fun () -> log := 3 :: !log));
  ignore (Sim.at sim (Time.us 10) (fun () -> log := 1 :: !log));
  ignore (Sim.at sim (Time.us 20) (fun () -> log := 2 :: !log));
  (* A periodic daemon must not keep the loop alive. *)
  Sim.every_daemon sim ~every:(Time.us 7) (fun _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "events in time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" (Time.us 30) (Sim.now sim)

(* Post at absolute [tm] (>= now). *)
let post_at sim tm h arg = Sim.post_after sim (Time.sub tm (Sim.now sim)) h arg

(* Posted events pushed out of time order run in time order with their
   payloads, and leave the queue empty. *)
let test_sim_posted_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let h = Sim.handler sim (fun i -> log := (i, Sim.now sim) :: !log) in
  post_at sim (Time.us 30) h 3;
  post_at sim (Time.us 10) h 1;
  post_at sim (Time.us 20) h 2;
  Alcotest.(check int) "three queued" 3 (Sim.pending sim);
  Alcotest.(check int) "three run" 3 (Sim.run sim);
  Alcotest.(check (list (pair int int64)))
    "time order"
    [ (1, Time.us 10); (2, Time.us 20); (3, Time.us 30) ]
    (List.rev !log);
  Alcotest.(check int) "empty" 0 (Sim.pending sim)

(* Closure and posted events at one instant run in insertion order. *)
let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  let h = Sim.handler sim (fun i -> log := i :: !log) in
  for i = 0 to 9 do
    if i mod 2 = 0 then ignore (Sim.at sim (Time.us 5) (fun () -> log := i :: !log))
    else post_at sim (Time.us 5) h i
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "FIFO at equal time" (List.init 10 Fun.id) (List.rev !log)

let test_sim_until_inclusive () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim (Time.ns 10) (fun () -> log := 1 :: !log));
  ignore (Sim.at sim (Time.ns 20) (fun () -> log := 2 :: !log));
  Alcotest.(check int) "min beyond horizon: nothing runs" 0 (Sim.run ~until:(Time.ns 5) sim);
  Alcotest.(check int) "nothing popped" 2 (Sim.pending sim);
  Alcotest.(check int) "negative horizon runs nothing" 0 (Sim.run ~until:(-1L) sim);
  Alcotest.(check int) "inclusive horizon" 1 (Sim.run ~until:(Time.ns 10) sim);
  Alcotest.(check int) "rest" 1 (Sim.run ~until:Time.infinity sim);
  Alcotest.(check (list int)) "order" [ 1; 2 ] (List.rev !log);
  Alcotest.(check int) "drained" 0 (Sim.run sim)

(* Times at and beyond 2^62 keep their exact value on the clock and their
   order, up to Time.infinity. *)
let test_sim_far_future () =
  let sim = Sim.create () in
  let p62 = Int64.shift_left 1L 62 in
  let times =
    [
      Time.ns 500; Time.us 300; Time.ms 100; Time.sec 60; Time.sec 7200; Int64.pred p62; p62;
      Int64.succ p62; Int64.pred Time.infinity; Time.infinity;
    ]
  in
  let seen = ref [] in
  let h = Sim.handler sim (fun i -> seen := (Sim.now sim, i) :: !seen) in
  (* Scheduled in reverse, alternating closures and posted events. *)
  List.iteri
    (fun i t ->
      if i mod 2 = 0 then ignore (Sim.at sim t (fun () -> seen := (Sim.now sim, i) :: !seen))
      else post_at sim t h i)
    (List.rev times);
  let n = List.length times in
  ignore (Sim.run sim);
  Alcotest.(check (list (pair int64 int)))
    "far-future pops in time order with exact clock"
    (List.mapi (fun i t -> (t, n - 1 - i)) times)
    (List.rev !seen)

(* Events scheduled from inside an event, between the current time and
   pending ones (and at the current time), run in (time, seq) order. *)
let test_sim_schedule_between () =
  let sim = Sim.create () in
  let log = ref [] in
  let h = Sim.handler sim (fun i -> log := i :: !log) in
  ignore
    (Sim.at sim (Time.us 10) (fun () ->
         log := 0 :: !log;
         post_at sim (Time.us 20) h 2;
         ignore (Sim.at sim (Time.us 15) (fun () -> log := 1 :: !log));
         Sim.post_after sim Time.zero h 9));
  ignore (Sim.at sim (Time.us 40) (fun () -> log := 3 :: !log));
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "nested pushes ordered" [ 0; 9; 1; 2; 3 ] (List.rev !log)

(* A drained simulation reuses its queue and arena: a stale handle from
   the first round never cancels the event now in its recycled slot. *)
let test_sim_reuse_after_drain () =
  let sim = Sim.create () in
  let n = ref 0 in
  let old = List.init 100 (fun i -> Sim.at sim (Time.ns ((i * 7919) land 0xFFFFF)) (fun () -> incr n)) in
  ignore (Sim.run sim);
  Alcotest.(check int) "first round" 100 !n;
  let fresh = List.init 100 (fun i -> Sim.after sim (Time.ns i) (fun () -> incr n)) in
  List.iter (Sim.cancel sim) old;
  Alcotest.(check int) "stale handles cancel nothing" 100 (Sim.live_pending sim);
  Sim.cancel sim (List.hd fresh);
  ignore (Sim.run sim);
  Alcotest.(check int) "second round" 199 !n;
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

(* Pop-order property: closure and posted events plus cancels, scheduled
   up front and from inside events, on a tie-heavy time grid with times
   at and beyond 2^62, run in the (time, seq) order of a sorted
   reference.  The run is split at an [until] horizon. *)
let grid =
  let p62 = Int64.shift_left 1L 62 in
  Array.append
    (Array.init 8 (fun k -> Time.ns (k * 31_250)))
    [| Int64.pred p62; p62; Int64.succ p62; Int64.pred Time.infinity; Time.infinity |]

type pop_op = Closure of int | Posted of int | Cancel of int

let pop_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun g -> Closure g) (int_bound (Array.length grid - 1)));
        (4, map (fun g -> Posted g) (int_bound (Array.length grid - 1)));
        (2, map (fun k -> Cancel k) (int_bound 1000));
      ])

let pop_op_print = function
  | Closure g -> Printf.sprintf "at %Ld" grid.(g)
  | Posted g -> Printf.sprintf "post %Ld" grid.(g)
  | Cancel k -> Printf.sprintf "cancel %d" k

let prop_sim_pop_order =
  QCheck.Test.make ~name:"pop order matches sorted" ~count:300
    QCheck.(
      pair
        (make
           ~print:(fun ops -> String.concat "; " (List.map pop_op_print ops))
           Gen.(list_size (int_range 1 80) pop_op_gen))
        (int_bound (Array.length grid - 1)))
    (fun (ops, cut) ->
      let sim = Sim.create () in
      (* Every scheduled event as (time, id); ids count schedules, so
         they follow Sim's own insertion seq. *)
      let scheduled = ref [] and next_id = ref 0 in
      let ran = Hashtbl.create 64 and dead = Hashtbl.create 64 in
      let log = ref [] in
      let handles = ref [] in
      let fire_posted = ref ignore in
      let posted = Sim.handler sim (fun id -> !fire_posted id) in
      let rec fire id =
        Hashtbl.replace ran id ();
        log := (Sim.now sim, id) :: !log;
        (* A third of the events schedule a nested event at a grid time
           clamped to now (so ties with the running instant are common),
           and a fifth cancel an earlier closure event. *)
        if id mod 3 = 0 then begin
          let g = grid.(id mod Array.length grid) in
          let tm = if Time.(g < Sim.now sim) then Sim.now sim else g in
          schedule ~closure:(id mod 2 = 0) tm
        end;
        if id mod 5 = 0 then cancel_nth id
      and schedule ~closure tm =
        let id = !next_id in
        incr next_id;
        scheduled := (tm, id) :: !scheduled;
        if closure then handles := (id, Sim.at sim tm (fun () -> fire id)) :: !handles
        else post_at sim tm posted id
      and cancel_nth k =
        match !handles with
        | [] -> ()
        | hs ->
          let id, ev = List.nth hs (k mod List.length hs) in
          if not (Hashtbl.mem ran id) then Hashtbl.replace dead id ();
          Sim.cancel sim ev
      in
      fire_posted := fire;
      List.iter
        (function
          | Closure g -> schedule ~closure:true grid.(g)
          | Posted g -> schedule ~closure:false grid.(g)
          | Cancel k -> cancel_nth k)
        ops;
      ignore (Sim.run ~until:grid.(cut) sim);
      ignore (Sim.run sim);
      let expected =
        List.filter (fun (_, id) -> not (Hashtbl.mem dead id)) !scheduled
        |> List.sort (fun (t1, s1) (t2, s2) ->
               match Time.compare t1 t2 with 0 -> compare s1 s2 | c -> c)
      in
      List.rev !log = expected && Sim.pending sim = 0)

(* Reference event loop on [Heap], the oracle for Sim-level order:
   events run in (time, insertion seq) order and cancellation skips an
   event when it pops. *)
type ref_loop = {
  rq : (bool ref * (unit -> unit)) Heap.t;
  mutable rclock : Time.t;
  mutable rseq : int;
  mutable rexecuted : int;
}

let ref_at l time f =
  let cancelled = ref false in
  Heap.push l.rq ~time ~seq:l.rseq (cancelled, f);
  l.rseq <- l.rseq + 1;
  cancelled

let rec ref_run l =
  match Heap.pop l.rq with
  | None -> ()
  | Some (time, _, (cancelled, f)) ->
    l.rclock <- time;
    if not !cancelled then begin
      l.rexecuted <- l.rexecuted + 1;
      f ()
    end;
    ref_run l

(* One schedule / nested schedule / cancel plan, driven through either
   loop's operations. *)
let plan_trace ~at ~after ~cancel ~now ~run plan =
  let log = Buffer.create 256 in
  let evs = ref [] in
  List.iteri
    (fun i (t, k) ->
      if k < 7 then begin
        let ev =
          at (Int64.of_int t) (fun () ->
              Buffer.add_string log (Printf.sprintf "%d@%Ld;" i (now ()));
              if k mod 3 = 0 then
                ignore
                  (after
                     (Int64.of_int (i mod 4 * 31_250))
                     (fun () -> Buffer.add_string log (Printf.sprintf "n%d@%Ld;" i (now ())))))
        in
        evs := ev :: !evs
      end
      else begin
        match !evs with [] -> () | l -> cancel (List.nth l (t mod List.length l))
      end)
    plan;
  let executed = run () in
  (Buffer.contents log, executed, now ())

(* Event times: a coarse 2ms grid, so same-time ties (and zero-delay
   nested schedules) are common, mixed with times spread up to 2^40 ns. *)
let sim_time_gen =
  QCheck.Gen.(oneof [ map (fun k -> k * 31_250) (int_range 0 63); int_range 0 (1 lsl 40) ])

(* Sim must execute the same events at the same times in the same order
   as the Heap reference loop. *)
let prop_sim_matches_heap_reference =
  QCheck.Test.make ~name:"Sim trace identical on heap reference loop" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (pair (make ~print:string_of_int sim_time_gen) (int_range 0 9)))
    (fun plan ->
      let sim = Sim.create () in
      let l = { rq = Heap.create (); rclock = Time.zero; rseq = 0; rexecuted = 0 } in
      plan_trace ~at:(Sim.at sim) ~after:(Sim.after sim) ~cancel:(Sim.cancel sim)
        ~now:(fun () -> Sim.now sim)
        ~run:(fun () -> Sim.run sim)
        plan
      = plan_trace ~at:(ref_at l)
          ~after:(fun d f -> ref_at l (Time.add l.rclock d) f)
          ~cancel:(fun c -> c := true)
          ~now:(fun () -> l.rclock)
          ~run:(fun () ->
            ref_run l;
            l.rexecuted)
          plan)

(* ------------------------------------------------------------------ *)
(* Resource                                                           *)
(* ------------------------------------------------------------------ *)

let test_resource_single_server_fifo () =
  let sim = Sim.create () in
  let r = Resource.create sim in
  let finishes = ref [] in
  for i = 1 to 3 do
    Resource.submit r ~service:(Time.us 10) (fun () -> finishes := (i, Sim.now sim) :: !finishes)
  done;
  ignore (Sim.run sim);
  let expected = [ (1, Time.us 10); (2, Time.us 20); (3, Time.us 30) ] in
  Alcotest.(check (list (pair int int64))) "sequential service" expected (List.rev !finishes)

let test_resource_priority () =
  let sim = Sim.create () in
  let r = Resource.create sim in
  let order = ref [] in
  (* Occupy the server, then enqueue low before high: high must win. *)
  Resource.submit r ~service:(Time.us 10) (fun () -> order := "first" :: !order);
  Resource.submit r ~priority:Resource.Low ~service:(Time.us 10) (fun () ->
      order := "low" :: !order);
  Resource.submit r ~priority:Resource.High ~service:(Time.us 10) (fun () ->
      order := "high" :: !order);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "high preempts queue" [ "first"; "high"; "low" ]
    (List.rev !order)

let test_resource_nonpreemptive () =
  let sim = Sim.create () in
  let r = Resource.create sim in
  let high_finished = ref Time.zero in
  Resource.submit r ~priority:Resource.Low ~service:(Time.ms 5) (fun () -> ());
  ignore
    (Sim.at sim (Time.us 1) (fun () ->
         Resource.submit r ~priority:Resource.High ~service:(Time.us 1) (fun () ->
             high_finished := Sim.now sim)));
  ignore (Sim.run sim);
  Alcotest.(check int64) "high waits behind in-service low"
    (Time.add (Time.ms 5) (Time.us 1))
    !high_finished

let test_resource_utilization () =
  let sim = Sim.create () in
  let r = Resource.create sim in
  Resource.submit r ~service:(Time.us 50) (fun () -> ());
  ignore (Sim.run ~until:(Time.us 100) sim);
  Alcotest.(check bool) "50% busy" true (abs_float (Resource.utilization r -. 0.5) < 1e-6)

let prop_resource_conserves_jobs =
  QCheck.Test.make ~name:"resource completes every submitted job" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 1 1000))
    (fun services ->
      let sim = Sim.create () in
      let r = Resource.create sim in
      let done_ = ref 0 in
      List.iter (fun s -> Resource.submit r ~service:(Time.ns s) (fun () -> incr done_)) services;
      ignore (Sim.run sim);
      !done_ = List.length services)

(* ------------------------------------------------------------------ *)
(* Allocation gates                                                   *)
(* ------------------------------------------------------------------ *)

(* Minor words per posted event: 64 self-reposting chains with distinct
   delays.  The only allocation left is the clock's re-box when time
   advances: 3 words, and none when an event ties with the clock. *)
let posted_event_words () =
  let sim = Sim.create () in
  let delays = Array.init 64 (fun i -> Time.ns (i + 1)) in
  let h = ref 0 in
  h :=
    Sim.handler sim (fun arg ->
        if arg >= 64 then Sim.post_after sim delays.(arg land 63) !h (arg - 64));
  let chains n =
    for c = 0 to 63 do
      Sim.post_after sim delays.(c) !h ((n * 64) + c)
    done;
    Sim.run sim
  in
  ignore (chains 10);
  let w0 = Gc.minor_words () in
  let events = chains 1_000 in
  (Gc.minor_words () -. w0) /. float_of_int events

(* Minor words per [Fabric.transmit] of a 1KB message, tx link through
   delivery, with a preallocated continuation: batches of 8 messages
   queue on the source link, so the ring path runs too. *)
let transmit_words () =
  let open Reflex_net in
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.dataplane_server in
  let delivered = ref 0 in
  let k () = incr delivered in
  let batch () =
    for _ = 1 to 8 do
      Fabric.transmit fabric ~src:a ~dst:b ~bytes:1024 k
    done;
    ignore (Sim.run sim)
  in
  batch ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    batch ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every message delivered" 8_008 !delivered;
  words /. 8_000.0

(* Minor words over 10,000 [Prng.int] draws: the state is stored
   unboxed, so a draw allocates nothing. *)
let prng_int_words () =
  let p = Prng.create 7L in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Prng.int p 1_000))
  done;
  Gc.minor_words () -. w0

(* Run under both build profiles ([make alloc-gate] runs them alone in
   release). *)
let test_posted_event_words () =
  let w = posted_event_words () in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per posted event <= 3.1" w) true (w <= 3.1)

let test_prng_int_words () =
  Alcotest.(check (float 0.0)) "words over 10,000 Prng.int draws" 0.0 (prng_int_words ())

let test_transmit_words () =
  let w = transmit_words () in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per 1KB transmit <= 40" w) true (w <= 40.0)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "time",
      [
        Alcotest.test_case "constructors" `Quick test_time_constructors;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "pretty-print" `Quick test_time_pp;
      ] );
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "known answers" `Quick test_prng_known_answers;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        Alcotest.test_case "float in range" `Quick test_prng_float_range;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        Alcotest.test_case "normal moments" `Quick test_prng_normal_moments;
        Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
        Alcotest.test_case "bernoulli bias" `Quick test_prng_bool_bias;
        qcheck prop_prng_int_bounds;
      ] );
    ("int_fifo", [ qcheck prop_int_fifo_matches_queue ]);
    ( "heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "pop_if_le horizon" `Quick test_heap_pop_if_le_horizon;
        Alcotest.test_case "clear releases values" `Quick test_heap_clear_releases_values;
        Alcotest.test_case "pop blanks vacated slots" `Quick test_heap_pop_blanks_slots;
        Alcotest.test_case "clear keeps capacity" `Quick test_heap_clear_keeps_capacity;
        qcheck prop_heap_sorts;
        qcheck prop_heap_pop_if_le_matches_guarded_pop;
      ] );
    ( "sim",
      [
        Alcotest.test_case "event ordering" `Quick test_sim_ordering;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "cancel releases closure immediately" `Quick
          test_sim_cancel_releases_closure;
        Alcotest.test_case "cancel after fire is a no-op" `Quick test_sim_cancel_after_fire_noop;
        Alcotest.test_case "run until" `Quick test_sim_until;
        Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
        Alcotest.test_case "past scheduling raises" `Quick test_sim_past_raises;
        Alcotest.test_case "periodic every" `Quick test_sim_every;
        Alcotest.test_case "clock advances to until" `Quick test_sim_run_advances_clock_to_until;
        Alcotest.test_case "every rejects non-positive period" `Quick
          test_sim_every_nonpositive_raises;
        Alcotest.test_case "every with until before first tick" `Quick
          test_sim_every_until_before_first_tick;
        Alcotest.test_case "every overflow guard" `Quick test_sim_every_overflow_guard;
        Alcotest.test_case "live_pending excludes cancelled" `Quick
          test_sim_live_pending_excludes_cancelled;
        Alcotest.test_case "daemon-only queue stops" `Quick test_sim_daemon_only_stops;
        Alcotest.test_case "posted event ordering" `Quick test_sim_posted_ordering;
        Alcotest.test_case "FIFO on ties" `Quick test_sim_fifo_ties;
        Alcotest.test_case "until horizon inclusive" `Quick test_sim_until_inclusive;
        Alcotest.test_case "far-future times exact" `Quick test_sim_far_future;
        Alcotest.test_case "schedule between pending" `Quick test_sim_schedule_between;
        Alcotest.test_case "reuse after drain" `Quick test_sim_reuse_after_drain;
        qcheck prop_sim_matches_heap_reference;
        qcheck prop_sim_pop_order;
      ] );
    ( "alloc",
      [
        Alcotest.test_case "posted event words" `Quick test_posted_event_words;
        Alcotest.test_case "transmit words" `Quick test_transmit_words;
        Alcotest.test_case "Prng.int draws allocation-free" `Quick test_prng_int_words;
      ] );
    ( "resource",
      [
        Alcotest.test_case "single-server FIFO" `Quick test_resource_single_server_fifo;
        Alcotest.test_case "priority dispatch" `Quick test_resource_priority;
        Alcotest.test_case "non-preemptive" `Quick test_resource_nonpreemptive;
        Alcotest.test_case "utilization accounting" `Quick test_resource_utilization;
        qcheck prop_resource_conserves_jobs;
      ] );
  ]
