(* Tests for the network substrate. *)

open Reflex_engine
open Reflex_net

let make_fabric ?(bandwidth_gbps = 10.0) () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim ~bandwidth_gbps () in
  (sim, fabric)

(* ------------------------------------------------------------------ *)
(* Stack_model                                                        *)
(* ------------------------------------------------------------------ *)

let test_stack_presets () =
  Alcotest.(check bool) "ix polls" true Stack_model.ix_client.Stack_model.polling;
  Alcotest.(check bool) "linux does not poll" false Stack_model.linux_client.Stack_model.polling;
  Alcotest.(check bool) "linux coalesces 20us" true
    (Time.equal Stack_model.linux_client.Stack_model.coalesce (Time.us 20));
  Alcotest.(check bool) "linux TCP ~70K msgs/thread" true
    (Stack_model.linux_client.Stack_model.max_msgs_per_sec = 70e3);
  Alcotest.(check bool) "iscsi slowest" true
    Time.(
      Stack_model.iscsi_server.Stack_model.rx_overhead
      > Stack_model.linux_server.Stack_model.rx_overhead)

let test_stack_delays () =
  let prng = Prng.create 1L in
  let sum_ix = ref Time.zero and sum_linux = ref Time.zero in
  for _ = 1 to 1000 do
    sum_ix := Time.add !sum_ix (Stack_model.rx_delay Stack_model.ix_client prng);
    sum_linux := Time.add !sum_linux (Stack_model.rx_delay Stack_model.linux_client prng)
  done;
  let mean_ix = Time.to_float_us !sum_ix /. 1000.0 in
  let mean_linux = Time.to_float_us !sum_linux /. 1000.0 in
  (* IX: fixed 1.5us. Linux: 4 + U(0,20) + exp(8) ~ 22us on average. *)
  Alcotest.(check (float 0.01)) "ix rx fixed" 1.5 mean_ix;
  Alcotest.(check bool)
    (Printf.sprintf "linux rx mean %.1f in [18,26]" mean_linux)
    true
    (mean_linux > 18.0 && mean_linux < 26.0)

(* ------------------------------------------------------------------ *)
(* Fabric                                                             *)
(* ------------------------------------------------------------------ *)

let test_serialization_time () =
  let _, fabric = make_fabric () in
  (* 4096 B at 10 Gb/s = 3276.8 ns *)
  let t = Fabric.serialization_time fabric ~bytes:4096 in
  Alcotest.(check int64) "4KB at 10GbE" 3277L t

let test_transmit_latency () =
  let sim, fabric = make_fabric () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.ix_client in
  let arrival = ref Time.zero in
  Fabric.transmit fabric ~src:a ~dst:b ~bytes:4096 (fun () -> arrival := Sim.now sim);
  ignore (Sim.run sim);
  (* 2 x 3.28us serialization + 2 x 0.7 NIC + 1.2 switch + 1.5 rx stack ~ 10.3us *)
  let us = Time.to_float_us !arrival in
  Alcotest.(check bool) (Printf.sprintf "one-way %.2fus in [9,12]" us) true (us > 9.0 && us < 12.0)

let test_bandwidth_cap () =
  let sim, fabric = make_fabric () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.ix_client in
  let delivered = ref 0 in
  (* Offer 600K x 4KB/s for 100ms = 2.4GB/s >> 1.25GB/s line rate. *)
  let n = 60_000 in
  for i = 0 to n - 1 do
    ignore
      (Sim.at sim (Time.of_float_ns (float_of_int i *. 1666.0)) (fun () ->
           Fabric.transmit fabric ~src:a ~dst:b ~bytes:4096 (fun () -> incr delivered)))
  done;
  ignore (Sim.run ~until:(Time.ms 100) sim);
  let rate_mbs = float_of_int (!delivered * 4096) /. 0.1 /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f MB/s ~ line rate" rate_mbs)
    true
    (rate_mbs > 1_100.0 && rate_mbs < 1_300.0)

let test_byte_accounting () =
  let sim, fabric = make_fabric () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.ix_client in
  Fabric.transmit fabric ~src:a ~dst:b ~bytes:1000 (fun () -> ());
  Fabric.transmit fabric ~src:a ~dst:b ~bytes:2000 (fun () -> ());
  ignore (Sim.run sim);
  Alcotest.(check int) "sent" 3000 (Fabric.bytes_sent a);
  Alcotest.(check int) "received" 3000 (Fabric.bytes_received b);
  Alcotest.(check string) "name" "a" (Fabric.host_name a)

(* ------------------------------------------------------------------ *)
(* Tcp_conn                                                           *)
(* ------------------------------------------------------------------ *)

let test_conn_roundtrip () =
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"client" ~stack:Stack_model.ix_client in
  let server = Fabric.add_host fabric ~name:"server" ~stack:Stack_model.dataplane_server in
  let conn = Tcp_conn.connect fabric ~client ~server in
  let rtt = ref Time.zero in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ ->
      Alcotest.(check string) "request content" "ping" msg;
      Tcp_conn.send_to_client conn ~size:4124 "pong");
  Tcp_conn.set_client_handler conn (fun msg ~size ->
      Alcotest.(check string) "response content" "pong" msg;
      Alcotest.(check int) "response size" 4124 size;
      rtt := Sim.now sim);
  Tcp_conn.send_to_server conn ~size:28 "ping";
  ignore (Sim.run sim);
  let us = Time.to_float_us !rtt in
  (* small request + 4KB response between polling endpoints: ~15-25us *)
  Alcotest.(check bool) (Printf.sprintf "RTT %.1fus plausible" us) true (us > 10.0 && us < 30.0);
  Alcotest.(check int) "counters" 1 (Tcp_conn.delivered_to_server conn);
  Alcotest.(check int) "counters" 1 (Tcp_conn.delivered_to_client conn)

let test_conn_fifo_under_jitter () =
  (* Linux receive jitter (coalescing + wakeups) must not reorder a
     connection's byte stream. *)
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"client" ~stack:Stack_model.linux_client in
  let server = Fabric.add_host fabric ~name:"server" ~stack:Stack_model.linux_server in
  let conn = Tcp_conn.connect fabric ~client ~server in
  let received = ref [] in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ -> received := msg :: !received);
  let n = 500 in
  for i = 1 to n do
    ignore
      (Sim.at sim (Time.of_float_us (float_of_int i *. 0.9)) (fun () ->
           Tcp_conn.send_to_server conn ~size:64 i))
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "in-order delivery" (List.init n (fun i -> i + 1))
    (List.rev !received)

let test_conn_handler_installed_late () =
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"c" ~stack:Stack_model.ix_client in
  let server = Fabric.add_host fabric ~name:"s" ~stack:Stack_model.ix_client in
  let conn = Tcp_conn.connect fabric ~client ~server in
  Tcp_conn.send_to_server conn ~size:28 "early";
  ignore (Sim.run sim);
  let got = ref None in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ -> got := Some msg);
  Alcotest.(check (option string)) "queued message replayed" (Some "early") !got

let test_linux_slower_than_ix () =
  (* One-way delivery time: Linux receiver should be slower on average
     than an IX receiver (interrupt coalescing + wakeup). *)
  let one_way stack =
    let sim, fabric = make_fabric () in
    let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
    let b = Fabric.add_host fabric ~name:"b" ~stack in
    let sum = ref 0.0 and n = 200 in
    for i = 0 to n - 1 do
      ignore
        (Sim.at sim (Time.us (i * 100)) (fun () ->
             let sent = Sim.now sim in
             Fabric.transmit fabric ~src:a ~dst:b ~bytes:4096 (fun () ->
                 sum := !sum +. Time.to_float_us (Time.diff (Sim.now sim) sent))))
    done;
    ignore (Sim.run sim);
    !sum /. float_of_int n
  in
  let ix = one_way Stack_model.ix_client in
  let linux = one_way Stack_model.linux_client in
  Alcotest.(check bool)
    (Printf.sprintf "linux %.1fus > ix %.1fus + 10" linux ix)
    true
    (linux > ix +. 10.0)

(* ------------------------------------------------------------------ *)
(* Reassembly under reordering and duplicates                         *)
(* ------------------------------------------------------------------ *)

(* The reassembly rule the in-flight window replaced, as a reference: a
   table of buffered arrivals and a cursor.  An arrival below the cursor
   is a duplicate and is dropped; one above it counts as out of order
   ([net/ooo_buffered]), a duplicate of a buffered one included. *)
type reference = { buffered : (int, unit) Hashtbl.t; mutable next : int; mutable ooo : int }

let reference_arrive r seq =
  if seq >= r.next then begin
    if seq <> r.next then r.ooo <- r.ooo + 1;
    Hashtbl.replace r.buffered seq ();
    while Hashtbl.mem r.buffered r.next do
      Hashtbl.remove r.buffered r.next;
      r.next <- r.next + 1
    done
  end

(* Linux stacks on both ends (receive jitter reorders raw deliveries),
   duplicates armed, and bursts of [n_s] messages to the server and
   [n_c] to the client every [gap_us].  The same schedule drives a twin
   world whose messages are plain [Fabric.transmit]s after the same
   transmit delay, arriving into [reference]: both worlds post the same
   events in the same order and so draw the same jitter and duplicates.
   Returns whether each direction delivered every message exactly once
   and in order, with exact counters and the reference's out-of-order
   count, plus that count and the number of raw arrivals. *)
let reassembly_run ~seed bursts =
  let world () =
    let sim = Sim.create ~seed:(Int64.of_int seed) () in
    let fabric = Fabric.create sim () in
    let client = Fabric.add_host fabric ~name:"client" ~stack:Stack_model.linux_client in
    let server = Fabric.add_host fabric ~name:"server" ~stack:Stack_model.linux_server in
    Fabric.set_fault_prng fabric (Prng.create (Int64.of_int (seed + 1)));
    Fabric.set_dup fabric ~prob:0.3;
    (sim, fabric, client, server)
  in
  let schedule sim send =
    let at = ref 0 and n_s = ref 0 and n_c = ref 0 in
    List.iter
      (fun (gap_us, to_s, to_c) ->
        at := !at + gap_us;
        let first_s = !n_s and first_c = !n_c in
        ignore
          (Sim.at sim (Time.us !at) (fun () ->
               for i = 0 to to_s - 1 do
                 send `To_server (first_s + i)
               done;
               for i = 0 to to_c - 1 do
                 send `To_client (first_c + i)
               done));
        n_s := !n_s + to_s;
        n_c := !n_c + to_c)
      bursts;
    ignore (Sim.run sim);
    (!n_s, !n_c)
  in
  (* the connection under test *)
  let sim, fabric, client, server = world () in
  let tel = Reflex_telemetry.Telemetry.create () in
  let conn = Tcp_conn.connect ~telemetry:tel fabric ~client ~server in
  let got_s = ref [] and got_c = ref [] in
  Tcp_conn.set_server_handler conn (fun i ~size:_ -> got_s := i :: !got_s);
  Tcp_conn.set_client_handler conn (fun i ~size:_ -> got_c := i :: !got_c);
  let n_s, n_c =
    schedule sim (fun dir i ->
        match dir with
        | `To_server -> Tcp_conn.send_to_server conn ~size:64 i
        | `To_client -> Tcp_conn.send_to_client conn ~size:64 i)
  in
  let ooo =
    int_of_float
      Reflex_telemetry.Telemetry.(counter_value (counter tel "net/ooo_buffered"))
  in
  (* the twin, arriving into the reference rule *)
  let sim, fabric, client, server = world () in
  let refs = Array.init 2 (fun _ -> { buffered = Hashtbl.create 16; next = 0; ooo = 0 }) in
  let arrivals = ref 0 in
  let _ =
    schedule sim (fun dir seq ->
        let src, dst, r = match dir with `To_server -> (client, server, refs.(0)) | `To_client -> (server, client, refs.(1)) in
        ignore
          (Sim.after sim (Fabric.host_stack src).Stack_model.tx_overhead (fun () ->
               Fabric.transmit fabric ~src ~dst ~bytes:64 (fun () ->
                   incr arrivals;
                   reference_arrive r seq))))
  in
  let ref_ooo = refs.(0).ooo + refs.(1).ooo in
  let ok =
    List.rev !got_s = List.init n_s Fun.id
    && List.rev !got_c = List.init n_c Fun.id
    && Tcp_conn.delivered_to_server conn = n_s
    && Tcp_conn.delivered_to_client conn = n_c
    && refs.(0).next = n_s
    && refs.(1).next = n_c
    && ooo = ref_ooo
  in
  (ok, ref_ooo, !arrivals, n_s + n_c)

let prop_reassembly_exactly_once_in_order =
  QCheck.Test.make ~name:"reassembly delivers once, in order, under jitter and duplicates"
    ~count:60
    QCheck.(
      pair (int_range 1 1_000)
        (list_of_size Gen.(int_range 1 8)
           (triple (int_range 0 40) (int_range 0 24) (int_range 0 24))))
    (fun (seed, bursts) ->
      let ok, _, _, _ = reassembly_run ~seed bursts in
      ok)

(* The property is not vacuous: a fixed schedule sees reordering and
   duplicates, and bursts wider than the ring's first capacities. *)
let test_reassembly_reorders_and_duplicates () =
  let ok, ooo, arrivals, sent = reassembly_run ~seed:3 [ (0, 20, 20); (5, 16, 3); (1, 24, 24) ] in
  Alcotest.(check bool) "delivered once, in order, counters exact" true ok;
  Alcotest.(check bool) (Printf.sprintf "%d out-of-order arrivals" ooo) true (ooo > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d raw arrivals > %d messages" arrivals sent)
    true (arrivals > sent)

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                    *)
(* ------------------------------------------------------------------ *)

(* Minor words per connection message, [Tcp_conn.send_to_server]
   through the server handler, in steady state: batches of 8 messages
   sent together between IX-like endpoints.  The message is an
   immediate, so the count is the connection and fabric path alone: the
   boxed [Time.t]s at module edges (each hop's delay handed to
   [Sim.post_after], the receive delay, the clock re-boxed as time
   advances).  Exact for the seed: 23.750 words in the dev profile,
   21.750 in release ([make alloc-gate] runs it alone in release). *)
let conn_message_words () =
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"client" ~stack:Stack_model.ix_client in
  let server = Fabric.add_host fabric ~name:"server" ~stack:Stack_model.dataplane_server in
  let conn = Tcp_conn.connect fabric ~client ~server in
  let received = ref 0 in
  Tcp_conn.set_server_handler conn (fun _ ~size:_ -> incr received);
  let batch () =
    for i = 1 to 8 do
      Tcp_conn.send_to_server conn ~size:64 i
    done;
    ignore (Sim.run sim)
  in
  batch ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    batch ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every message delivered" 8_008 !received;
  words /. 8_000.0

let test_conn_message_words () =
  let w = conn_message_words () in
  let bound = if Build_profile.release then 21.75 else 23.75 in
  Alcotest.(check bool) (Printf.sprintf "%.3f words per connection message <= %g" w bound) true
    (w <= bound)

let suite =
  [
    ( "stack_model",
      [
        Alcotest.test_case "presets" `Quick test_stack_presets;
        Alcotest.test_case "delay distributions" `Quick test_stack_delays;
      ] );
    ( "fabric",
      [
        Alcotest.test_case "serialization time" `Quick test_serialization_time;
        Alcotest.test_case "one-way latency" `Quick test_transmit_latency;
        Alcotest.test_case "10GbE bandwidth cap" `Quick test_bandwidth_cap;
        Alcotest.test_case "byte accounting" `Quick test_byte_accounting;
      ] );
    ( "tcp_conn",
      [
        Alcotest.test_case "request/response roundtrip" `Quick test_conn_roundtrip;
        Alcotest.test_case "FIFO under receive jitter" `Quick test_conn_fifo_under_jitter;
        Alcotest.test_case "late handler replays queue" `Quick test_conn_handler_installed_late;
        Alcotest.test_case "linux receiver slower than ix" `Quick test_linux_slower_than_ix;
        Alcotest.test_case "reassembly sees reordering and duplicates" `Quick
          test_reassembly_reorders_and_duplicates;
        QCheck_alcotest.to_alcotest prop_reassembly_exactly_once_in_order;
      ] );
    ("alloc", [ Alcotest.test_case "connection message words" `Quick test_conn_message_words ]);
  ]
