open Reflex_engine
open Trace_event

(* Renderers for an alert-triggered flight dump.  Everything here is a pure
   function of the snapshot plus the trigger cross-references; timestamps
   are sim-time microseconds with exactly three decimals ([us]), so dumps
   are byte-identical wherever the same seed ran. *)

type trigger = string * Time.t * string
type fault_window = string * Time.t * Time.t option

let snap_label (s : Flight.snapshot) id =
  if id >= 0 && id < Array.length s.Flight.s_labels then s.Flight.s_labels.(id) else "?"

let cutoff (s : Flight.snapshot) = Time.sub s.Flight.snap_now s.Flight.snap_window

(* Fault windows overlapping the snapshot window, each flagged with whether
   it straddles the trigger instant (the alert edge when given, else the
   snapshot instant). *)
let relevant_faults ?alert ~(snap : Flight.snapshot) faults =
  let t_trigger = match alert with Some (_, at, _) -> at | None -> snap.Flight.snap_now in
  let lo = cutoff snap in
  List.filter_map
    (fun (label, t0, t1) ->
      let overlaps =
        Time.(t0 <= snap.Flight.snap_now)
        && (match t1 with None -> true | Some t1 -> Time.(t1 >= lo))
      in
      if not overlaps then None
      else
        let active =
          Time.(t0 <= t_trigger)
          && (match t1 with None -> true | Some t1 -> Time.(t1 >= t_trigger))
        in
        Some (label, t0, t1, active))
    faults

(* ------------------------------------------------------------------ *)
(* JSON forensic debrief                                              *)
(* ------------------------------------------------------------------ *)

let debrief ?alert ?(faults = []) (snap : Flight.snapshot) =
  let buf = Buffer.create 4096 in
  let n = Flight.snap_length snap in
  Printf.bprintf buf
    "{\"flight_dump\":{\"snapshot_at_us\":%s,\"window_us\":%s,\"records_in_window\":%d,\"ring_total\":%d,\"ring_dropped\":%d,"
    (us snap.Flight.snap_now) (us snap.Flight.snap_window) n snap.Flight.snap_total
    snap.Flight.snap_dropped;
  (* Trigger cross-reference: which alert fired and what it said. *)
  Buffer.add_string buf "\"trigger\":";
  add_value buf
    (match alert with
    | None -> Null
    | Some (rule, at, detail) -> Obj [ ("alert", Str rule); ("at_us", Us at); ("detail", Str detail) ]);
  Buffer.add_string buf ",\n\"fault_windows\":[";
  List.iteri
    (fun i (label, t0, t1, active) ->
      Buffer.add_string buf (if i > 0 then ",\n " else "\n ");
      add_object buf
        [
          ("label", Str label);
          ("start_us", Us t0);
          ("end_us", match t1 with None -> Null | Some t1 -> Us t1);
          ("active_at_trigger", Bool active);
        ])
    (relevant_faults ?alert ~snap faults);
  Buffer.add_string buf "],\n\"counts\":";
  let counts = Array.make Flight.Kind.count 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) snap.Flight.s_kinds;
  add_object buf
    (List.filter_map
       (fun k ->
         if counts.(k) > 0 then Some (Flight.Kind.name (Flight.Kind.of_int k), Int counts.(k))
         else None)
       (List.init Flight.Kind.count Fun.id));
  Buffer.add_string buf ",\n\"records\":[";
  for i = 0 to n - 1 do
    Buffer.add_string buf (if i > 0 then ",\n " else "\n ");
    let kind = Flight.Kind.of_int snap.Flight.s_kinds.(i) in
    let a = snap.Flight.s_a.(i) in
    add_object buf
      ([
         ("t_us", Us snap.Flight.s_times.(i));
         ("kind", Str (Flight.Kind.name kind));
         ("a", Int a);
         ("b", Int snap.Flight.s_b.(i));
         ("v", Num snap.Flight.s_v.(i));
       ]
      @ if Flight.Kind.a_is_label kind then [ ("label", Str (snap_label snap a)) ] else [])
  done;
  Buffer.add_string buf "]}}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event view                                            *)
(* ------------------------------------------------------------------ *)

(* Layout: pid 0 carries the forensic tracks — fault-window slices and
   alert instants on tid 0 (matching Trace_export's convention), per-thread
   queue-depth counters, per-tenant token counters. *)
let to_chrome_json ?alert ?(faults = []) (snap : Flight.snapshot) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let q = seq buf ~sep:",\n" in
  event q ~name:"process_name" ~ph:"M" ~pid:0 ~args:[ ("name", Str "flight recorder") ] ();
  (* Fault windows as duration slices; still-open windows close at the
     snapshot instant. *)
  List.iter
    (fun (label, t0, t1, active) ->
      let t1 = match t1 with Some t -> t | None -> snap.Flight.snap_now in
      event q ~name:label ~cat:"fault" ~ph:"X" ~ts:t0 ~dur:(Time.diff t1 t0) ~pid:0 ~tid:0
        ~args:[ ("active_at_trigger", Bool active) ]
        ())
    (relevant_faults ?alert ~snap faults);
  (* The triggering alert edge as a global instant. *)
  (match alert with
  | None -> ()
  | Some (rule, at, detail) ->
    event q ~name:("ALERT " ^ rule) ~cat:"alert" ~ph:"i" ~s:"g" ~ts:at ~pid:0 ~tid:0
      ~args:[ ("detail", Str detail) ]
      ());
  for i = 0 to Flight.snap_length snap - 1 do
    let kind = Flight.Kind.of_int snap.Flight.s_kinds.(i) in
    let ts = snap.Flight.s_times.(i) in
    let a = snap.Flight.s_a.(i) and b = snap.Flight.s_b.(i) and v = snap.Flight.s_v.(i) in
    match kind with
    | Flight.Kind.Queue_depth ->
      event q ~name:(Printf.sprintf "rx_depth/thread%d" a) ~ph:"C" ~ts ~pid:0
        ~args:[ ("depth", Num v); ("outstanding", Int b) ]
        ()
    | Flight.Kind.Grant ->
      (* Token level after the grant as a per-tenant counter. *)
      event q ~name:(Printf.sprintf "tokens/t%d" a) ~ph:"C" ~ts ~pid:0 ~args:[ ("tokens", Num v) ] ()
    | Flight.Kind.Refill ->
      (* Per-round refill amount as a per-tenant counter track. *)
      event q ~name:(Printf.sprintf "refill/t%d" a) ~ph:"C" ~ts ~pid:0 ~args:[ ("grant", Num v) ] ()
    | _ ->
      let name =
        if Flight.Kind.a_is_label kind then Flight.Kind.name kind ^ " " ^ snap_label snap a
        else Flight.Kind.name kind
      in
      let tid =
        match kind with
        | Flight.Kind.Throttle | Flight.Kind.Deficit | Flight.Kind.Donate | Flight.Kind.Bucket_take
        | Flight.Kind.Idle_drain | Flight.Kind.Bucket_reset ->
          b
        | _ -> 0
      in
      event q ~name ~cat:"flight" ~ph:"i" ~s:"t" ~ts ~pid:0 ~tid
        ~args:[ ("a", Int a); ("b", Int b); ("v", Num v) ]
        ()
  done;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
