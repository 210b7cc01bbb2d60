(* Export pin inputs: every trace_event exporter's output on small
   fixed-seed inputs.  The pin table (pins.md5, checked by test_pins.ml)
   holds their MD5s, recorded from the writer as it stood before the
   direct-write rewrite: same-binary identity checks (rerun, --jobs)
   cannot see a format drift a new writer introduces; the pins can.  The
   cases here check that each input reaches the writer paths it pins. *)

open Reflex_engine
open Reflex_client
open Reflex_telemetry
open Reflex_experiments
module Te = Reflex_obs.Trace_event
module Flight = Reflex_obs.Flight
module Flight_dump = Reflex_obs.Flight_dump
module Rack_rollup = Reflex_rack_obs.Rack_rollup
module Monitor = Reflex_monitor.Monitor
module Alerts = Reflex_monitor.Alerts

let nasty = "q\"b\\s\nn\tt\rr\001."

(* ------------------------------------------------------------------ *)
(* Request trace: a short traced world plus every rare event kind     *)
(* ------------------------------------------------------------------ *)

(* One LC tenant and one BE write flood for 40 ms, then fault windows
   (one closed, one left open), both link kinds, remediation marks and
   the monitor's alert instants as [~extra]. *)
let request_trace () =
  let telemetry = Telemetry.create () in
  let w = Common.make_reflex ~n_threads:1 ~telemetry ~seed:3L () in
  let sim = w.Common.sim in
  let m = Monitor.create ~server:w.Common.server ~telemetry () in
  Alerts.add (Monitor.alerts m) (Alerts.rule ~name:"pin" (fun _ _ -> Some nasty));
  let until = Time.add (Sim.now sim) (Time.ms 40) in
  let lc =
    Common.client_of w ~slo:(Common.lc_slo ~latency_us:500 ~iops:50_000 ~read_pct:80) ~tenant:1 ()
  in
  let g_lc =
    Load_gen.open_loop sim ~client:lc ~pacing:`Poisson ~mix:`Deterministic ~rate:20_000.0
      ~read_ratio:0.8 ~bytes:4096 ~until ~seed:7L ()
  in
  let be = Common.client_of w ~slo:(Common.be_slo ~read_pct:10 ()) ~tenant:101 () in
  let g_be =
    Load_gen.closed_loop sim ~client:be ~depth:8 ~read_ratio:0.1 ~bytes:4096 ~until ~seed:11L ()
  in
  Common.measure_generators sim [ g_lc; g_be ] ~warmup:(Time.ms 5) ~window:(Time.ms 30);
  Telemetry.fault_mark telemetry ~now:(Time.ns 1_234_567) ~label:("fault " ^ nasty) ~active:true;
  Telemetry.fault_mark telemetry ~now:(Time.ns 9_000_001) ~label:("fault " ^ nasty) ~active:false;
  Telemetry.fault_mark telemetry ~now:(Time.ns 20_000_999) ~label:"open" ~active:true;
  Telemetry.link telemetry ~now:(Time.ns 3_000_010) ~kind:Telemetry.Follows_from ~src_tenant:1
    ~src_req:5L ~dst_tenant:1 ~dst_req:77L;
  Telemetry.link telemetry ~now:(Time.ns 4_500_500) ~kind:Telemetry.Child_of ~src_tenant:0
    ~src_req:0L ~dst_tenant:101 ~dst_req:12L;
  Telemetry.remediation_mark telemetry ~now:(Time.ns 9_500_000) ~rule:"p95" ~outcome:nasty;
  for i = 1 to 3 do
    Monitor.tick m ~now:(Time.add (Time.ms i) (Time.ns 7))
  done;
  Trace_export.to_chrome_json ~extra:(Monitor.chrome_instants m) telemetry

(* ------------------------------------------------------------------ *)
(* Flight rings from a seeded generator                               *)
(* ------------------------------------------------------------------ *)

let all_kinds = List.init Flight.Kind.count Flight.Kind.of_int

(* Payload floats across %g's forms: integers, fractions, negatives,
   exponents. *)
let payload rng =
  match Prng.int rng 5 with
  | 0 -> float_of_int (Prng.int rng 100)
  | 1 -> Prng.float rng
  | 2 -> -.Prng.float_range rng 0.0 5000.0
  | 3 -> Prng.float_range rng 0.0 1e9
  | _ -> Prng.float_range rng 0.0 1e-6

(* Forty records per kind at strictly increasing, sub-µs-ragged times. *)
let flight_snapshot () =
  let rng = Prng.create 17L in
  let fl = Flight.create ~capacity:4096 () in
  let labels = Array.map (Flight.intern fl) [| "alert/p95"; "fault " ^ nasty; "shed" |] in
  let now = ref (Time.ns 999) in
  for _ = 1 to 40 do
    List.iter
      (fun kind ->
        now := Time.add !now (Time.ns (1 + Prng.int rng 2_500));
        let a =
          if Flight.Kind.a_is_label kind then labels.(Prng.int rng 3) else Prng.int rng 6
        in
        Flight.record fl ~now:!now ~kind ~a ~b:(Prng.int rng 4) ~v:(payload rng))
      all_kinds
  done;
  Flight.snapshot fl ~now:!now ~window:(Time.ns 700_001)

let flight_chrome () =
  let snap = flight_snapshot () in
  let lo = Time.sub snap.Flight.snap_now snap.Flight.snap_window in
  let faults =
    [
      ("fault " ^ nasty, Time.add lo (Time.ns 1_001), Some (Time.add lo (Time.ns 250_999)));
      ("open", Time.add lo (Time.ns 300_000), None);
    ]
  in
  let alert = ("alert/p95", Time.add lo (Time.ns 200_017), nasty) in
  (Flight_dump.to_chrome_json ~alert ~faults snap, Flight_dump.debrief ~alert ~faults snap)

(* Three servers' hop stamps plus a rack lane of balance decisions and
   migrations; tenant 2 migrates twice, and picks land before, between
   and after its migrations. *)
let rack_snaps () =
  let rng = Prng.create 29L in
  let servers = Array.init 3 (fun _ -> Flight.create ~capacity:4096 ()) in
  let rack = Flight.create ~capacity:4096 () in
  let now = ref (Time.ns 501) in
  let tick () = now := Time.add !now (Time.ns (1 + Prng.int rng 1_800)) in
  let migrations = [ (60, 2, 1, 0); (140, 2, 2, 1); (100, 4, 0, 2) ] in
  for rid = 1 to 200 do
    List.iter
      (fun (at, tenant, dst, src) ->
        if rid = at then begin
          tick ();
          Flight.record rack ~now:!now ~kind:Flight.Kind.Migrate ~a:tenant ~b:dst
            ~v:(float_of_int src)
        end)
      migrations;
    tick ();
    let srv = Prng.int rng 3 in
    Flight.record rack ~now:!now ~kind:Flight.Kind.Balance ~a:srv ~b:(Prng.int rng 3)
      ~v:(float_of_int (Prng.int rng 9));
    let tenant = Prng.int rng 6 in
    for hop = 0 to 4 do
      tick ();
      Flight.record servers.(srv) ~now:!now ~kind:Flight.Kind.Hop ~a:rid
        ~b:((tenant lsl 3) lor hop) ~v:(payload rng)
    done
  done;
  Flight.record servers.(0) ~now:!now ~kind:Flight.Kind.Mark ~a:0 ~b:1 ~v:2.5;
  let window = Time.ms 2 in
  (Array.map (fun fl -> Flight.snapshot fl ~now:!now ~window) servers,
   Flight.snapshot rack ~now:!now ~window)

(* Each pinned output, built once for the cases below and the pin table:
   the request trace, [(Flight_dump.to_chrome_json, debrief)] and
   [(Rack_rollup.chrome_trace, stitch)]. *)
let request_trace_json = lazy (request_trace ())
let flight_dump = lazy (flight_chrome ())

let rack_rollup =
  lazy
    (let server_snaps, rack_snap = rack_snaps () in
     ( Rack_rollup.chrome_trace ~server_snaps ~rack_snap,
       Rack_rollup.stitch ~server_snaps ~rack_snap ))

(* ------------------------------------------------------------------ *)
(* Coverage of the pinned inputs                                      *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Each pinned input reaches the writer paths it is meant to pin. *)
let covers what s needles =
  List.iter (fun n -> Alcotest.(check bool) (what ^ " has " ^ n) true (contains s n)) needles

let test_request_trace () =
  let json = Lazy.force request_trace_json in
  covers "request trace" json
    [ {|"cat":"request","ph":"X"|}; {|"cat":"span","ph":"i"|}; {|"cat":"fault"|};
      {|"name":"open"|}; {|"ph":"f","bp":"e"|}; {|"name":"child"|}; {|"cat":"remediation"|};
      {|"cat":"alert"|} ]

let test_flight_dump () =
  let chrome, debrief = Lazy.force flight_dump in
  covers "flight chrome" chrome [ {|"name":"open"|}; {|"cat":"alert"|}; {|"cat":"flight"|} ];
  covers "flight debrief" debrief [ {|"trigger":{|}; {|"fault_windows"|} ]

let test_rack_rollup () =
  let trace, stitch = Lazy.force rack_rollup in
  covers "rack trace" trace [ {|"name":"migrate"|}; {|"name":"follows_from"|}; {|"name":"mark"|} ];
  (* A pick's follows_from parent is its tenant's latest migration at or
     before it: tenant 2's picks between its two migrations name the
     first (rack-00 -> rack-01), and its picks after the second name the
     second (rack-01 -> rack-02). *)
  covers "stitch" stitch
    [
      "follows_from migrate rack-00 -> rack-01";
      "follows_from migrate rack-01 -> rack-02";
      "follows_from migrate rack-02 -> rack-00";
    ]

(* One event with every optional field set, a name that needs escaping
   and every value form in its args, written whole and from a head. *)
let test_full_event () =
  let name = "a\"b\\c\nd\001e" and cat = "c\tat" and ph = "X" and bp = "e" and id = -7
  and s = "g" in
  let ts = Time.ns 1_234_567_891 and dur = Time.ns (-1_001) and pid = 3 and tid = -1 in
  let args =
    [
      ("i", Te.Int 42);
      ("f", Te.Num 0.1);
      ("g", Te.Num 1e21);
      ("u", Te.Us (Time.ns (-999)));
      ("z", Te.Us Time.zero);
      ("s", Te.Str "\r");
      ("b", Te.Bool false);
      ("n", Te.Null);
      ("o", Te.Obj [ ("k", Te.Arr [ Te.Int 1; Te.Us (Time.ns 1_000) ]) ]);
      ("e", Te.Arr []);
    ]
  in
  let expected =
    {|{"name":"a\"b\\c\nd\u0001e","cat":"c\tat","ph":"X","bp":"e","id":-7,"s":"g","ts":1234567.891,"dur":-1.001,"pid":3,"tid":-1,"args":{"i":42,"f":0.1,"g":1e+21,"u":-0.999,"z":0.000,"s":"\r","b":false,"n":null,"o":{"k":[1,1.000]},"e":[]}}|}
  in
  Alcotest.(check string) "every field, escaped name" expected
    (Te.to_string (fun q ->
         Te.event q ~name ~cat ~ph ~bp ~id ~s ~ts ~dur ~pid ~tid ~args ()));
  let head = Te.head ~name ~cat ~ph ~bp ~id ~s () in
  Alcotest.(check string) "same event from a head" expected
    (Te.to_string (fun q -> Te.event_from q head ~ts ~dur ~pid ~tid ~args ()))

let suite =
  [
    ( "pins",
      [
        Alcotest.test_case "request trace bytes" `Quick test_request_trace;
        Alcotest.test_case "flight dump bytes" `Quick test_flight_dump;
        Alcotest.test_case "rack rollup bytes" `Quick test_rack_rollup;
        Alcotest.test_case "one event, every field" `Quick test_full_event;
      ] );
  ]
