open Reflex_engine
module Flight = Reflex_obs.Flight
module Te = Reflex_obs.Trace_event
open Te

(* Rack timeline rollup: merge N per-server flight-ring snapshots plus
   the rack ring (Balance/Migrate records) into one time-ordered view.

   Lane assignment is fixed: pid 0 is the rack lane, pid i+1 is server i.
   The merge order is total and deterministic: events sort by
   (time, lane, in-lane index) — each snapshot is already oldest-first,
   so in-lane order is preserved and cross-lane ties break toward the
   rack lane then ascending server index.  Rendering the same snapshots
   twice is byte-identical by construction. *)

let lane_name lane = if lane = 0 then "rack" else Printf.sprintf "rack-%02d" (lane - 1)

let hop_of_b b = b land 7
let tenant_of_b b = b lsr 3

(* One merged record: (time, lane, in-lane index, record fields). *)
type ev = { e_time : Time.t; e_lane : int; e_idx : int; e_kind : int; e_a : int; e_b : int; e_v : float }

let collect ~server_snaps ~rack_snap =
  let out = ref [] in
  let add lane (snap : Flight.snapshot) =
    let n = Flight.snap_length snap in
    for i = n - 1 downto 0 do
      out :=
        {
          e_time = snap.Flight.s_times.(i);
          e_lane = lane;
          e_idx = i;
          e_kind = snap.Flight.s_kinds.(i);
          e_a = snap.Flight.s_a.(i);
          e_b = snap.Flight.s_b.(i);
          e_v = snap.Flight.s_v.(i);
        }
        :: !out
    done
  in
  Array.iteri (fun i snap -> add (i + 1) snap) server_snaps;
  add 0 rack_snap;
  List.stable_sort
    (fun a b ->
      let c = Time.compare a.e_time b.e_time in
      if c <> 0 then c
      else
        let c = compare a.e_lane b.e_lane in
        if c <> 0 then c else compare a.e_idx b.e_idx)
    !out

(* Chrome trace event for one record.  Hop records become instants in
   their server lane (tid = stamp index, so the five stamp points of a
   request stack as five tracks); Balance/Migrate live in the rack lane. *)
let render_ev q e =
  let instant ~name ?(s = "t") ?(tid = 0) args =
    Te.event q ~name ~cat:"rack" ~ph:"i" ~s ~ts:e.e_time ~pid:e.e_lane ~tid ~args ()
  in
  match Flight.Kind.of_int e.e_kind with
  | Flight.Kind.Hop ->
    let k = hop_of_b e.e_b in
    instant ~name:("hop/" ^ Rack_obs.stamp_name k) ~tid:k
      [ ("rid", Int e.e_a); ("tenant", Int (tenant_of_b e.e_b)); ("v_us", Num e.e_v) ]
  | Flight.Kind.Balance ->
    instant ~name:"balance" [ ("server", Int e.e_a); ("policy", Int e.e_b); ("depth", Num e.e_v) ]
  | Flight.Kind.Migrate ->
    instant ~name:"migrate" ~s:"g" [ ("tenant", Int e.e_a); ("dst", Int e.e_b); ("src", Num e.e_v) ]
  | kind -> instant ~name:(Flight.Kind.name kind) [ ("a", Int e.e_a); ("b", Int e.e_b); ("v", Num e.e_v) ]

(* Follows_from flow arrows: every Migrate record in the rack lane links
   to the first post-migration pick (hop 0) of that tenant in the
   destination server's lane — the migration is the causal parent of the
   dispatches it redirected. *)
let flows ~server_snaps ~rack_snap =
  let out = ref [] in
  let n = Flight.snap_length rack_snap in
  let flow_id = ref 0 in
  for i = 0 to n - 1 do
    if Flight.Kind.of_int rack_snap.Flight.s_kinds.(i) = Flight.Kind.Migrate then begin
      let mt = rack_snap.Flight.s_times.(i) in
      let tenant = rack_snap.Flight.s_a.(i) in
      let dst = rack_snap.Flight.s_b.(i) in
      if dst >= 0 && dst < Array.length server_snaps then begin
        let snap = server_snaps.(dst) in
        let rec first j =
          if j >= Flight.snap_length snap then None
          else
            let b = snap.Flight.s_b.(j) in
            if
              Flight.Kind.of_int snap.Flight.s_kinds.(j) = Flight.Kind.Hop
              && hop_of_b b = 0 && tenant_of_b b = tenant
              && Time.(snap.Flight.s_times.(j) >= mt)
            then Some j
            else first (j + 1)
        in
        match first 0 with
        | Some j ->
          incr flow_id;
          out :=
            (!flow_id, mt, dst + 1, snap.Flight.s_times.(j), snap.Flight.s_a.(j), tenant)
            :: !out
        | None -> ()
      end
    end
  done;
  List.rev !out

let chrome_trace ~server_snaps ~rack_snap =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let q = Te.seq buf ~sep:",\n" in
  (* lane naming metadata *)
  for lane = 0 to Array.length server_snaps do
    Te.event q ~name:"process_name" ~ph:"M" ~pid:lane ~args:[ ("name", Str (lane_name lane)) ] ()
  done;
  List.iter (render_ev q) (collect ~server_snaps ~rack_snap);
  List.iter
    (fun (id, mt, dst_lane, pt, rid, tenant) ->
      Te.event q ~name:"follows_from" ~cat:"rack" ~ph:"s" ~id ~ts:mt ~pid:0 ~tid:0
        ~args:[ ("tenant", Int tenant) ] ();
      Te.event q ~name:"follows_from" ~cat:"rack" ~ph:"f" ~bp:"e" ~id ~ts:pt ~pid:dst_lane ~tid:0
        ~args:[ ("rid", Int rid) ] ())
    (flows ~server_snaps ~rack_snap);
  Buffer.add_string buf "\n],\n\"lanes\":[\n";
  (* Per-lane loss accounting off the per-kind snapshot counters
     (wraparound names exactly what each lane lost). *)
  let lanes = Te.seq buf ~sep:",\n" in
  let lane_entry lane (snap : Flight.snapshot) =
    Te.obj lanes
      [
        ("lane", Str (lane_name lane));
        ("events", Int (Flight.snap_length snap));
        ("total", Int snap.Flight.snap_total);
        ("dropped", Int snap.Flight.snap_dropped);
        ("hop_written", Int (Flight.snap_kind_written snap Flight.Kind.Hop));
        ("hop_dropped", Int (Flight.snap_kind_dropped snap Flight.Kind.Hop));
        ("balance_written", Int (Flight.snap_kind_written snap Flight.Kind.Balance));
        ("migrate_written", Int (Flight.snap_kind_written snap Flight.Kind.Migrate));
      ]
  in
  lane_entry 0 rack_snap;
  Array.iteri (fun i snap -> lane_entry (i + 1) snap) server_snaps;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* Text stitching of the causal span trees: every traced request id seen
   in the server lanes, its hop chain in stamp order, and the
   Follows_from migration parent when one precedes the pick: the
   tenant's latest migration at or before it.  The ordering is (rid
   asc), so two runs agree byte-for-byte exactly when they traced the
   same requests the same way. *)
let stitch ~server_snaps ~rack_snap =
  let buf = Buffer.create 4096 in
  (* rid -> (lane, tenant, hops as (stamp, time, v) in record order) *)
  let tbl = Hashtbl.create 256 in
  let rids = ref [] in
  Array.iteri
    (fun srv (snap : Flight.snapshot) ->
      let n = Flight.snap_length snap in
      for i = 0 to n - 1 do
        if Flight.Kind.of_int snap.Flight.s_kinds.(i) = Flight.Kind.Hop then begin
          let rid = snap.Flight.s_a.(i) in
          let b = snap.Flight.s_b.(i) in
          if not (Hashtbl.mem tbl rid) then begin
            Hashtbl.add tbl rid (srv, tenant_of_b b, ref []);
            rids := rid :: !rids
          end;
          let _, _, hops = Hashtbl.find tbl rid in
          hops := (hop_of_b b, snap.Flight.s_times.(i), snap.Flight.s_v.(i)) :: !hops
        end
      done)
    server_snaps;
  let rids = List.sort Int.compare !rids in
  (* tenant -> its migrations (time, src, dst) from the rack lane, newest
     first *)
  let migs = Hashtbl.create 16 in
  for i = 0 to Flight.snap_length rack_snap - 1 do
    if Flight.Kind.of_int rack_snap.Flight.s_kinds.(i) = Flight.Kind.Migrate then begin
      let tenant = rack_snap.Flight.s_a.(i) in
      let older = Option.value (Hashtbl.find_opt migs tenant) ~default:[] in
      Hashtbl.replace migs tenant
        (( rack_snap.Flight.s_times.(i),
           int_of_float rack_snap.Flight.s_v.(i),
           rack_snap.Flight.s_b.(i) )
        :: older)
    end
  done;
  let lanes = Array.init (Array.length server_snaps + 1) lane_name in
  List.iter
    (fun rid ->
      let srv, tenant, hops = Hashtbl.find tbl rid in
      let hops = List.rev !hops in
      Buffer.add_string buf "rid ";
      add_int buf rid;
      Buffer.add_string buf " tenant ";
      add_int buf tenant;
      Buffer.add_string buf " lane ";
      Buffer.add_string buf lanes.(srv + 1);
      Buffer.add_char buf '\n';
      let parent =
        match hops with
        | (_, pt, _) :: _ ->
          List.find_opt
            (fun (mt, _, _) -> Time.(mt <= pt))
            (Option.value (Hashtbl.find_opt migs tenant) ~default:[])
        | [] -> None
      in
      Option.iter
        (fun (mt, msrc, mdst) ->
          Buffer.add_string buf "  follows_from migrate ";
          Buffer.add_string buf (lane_name (msrc + 1));
          Buffer.add_string buf " -> ";
          Buffer.add_string buf (lane_name (mdst + 1));
          Buffer.add_string buf " @ ";
          add_us buf mt;
          Buffer.add_string buf " us\n")
        parent;
      List.iter
        (fun (stamp, time, v) ->
          Buffer.add_string buf "  child_of ";
          Buffer.add_string buf (Rack_obs.stamp_name stamp);
          Buffer.add_string buf " @ ";
          add_us buf time;
          Buffer.add_string buf " us (+";
          add_value buf (Num v);
          Buffer.add_string buf " us)\n")
        hops)
    rids;
  Buffer.contents buf

let lane_summary ~server_snaps ~rack_snap =
  let buf = Buffer.create 512 in
  let line lane (snap : Flight.snapshot) =
    Printf.bprintf buf
      "  lane %-8s %5d events in window, %6d written (hop %d/%d retained, %d dropped)\n"
      (lane_name lane) (Flight.snap_length snap) snap.Flight.snap_total
      (Flight.snap_kind_retained snap Flight.Kind.Hop)
      (Flight.snap_kind_written snap Flight.Kind.Hop)
      (Flight.snap_kind_dropped snap Flight.Kind.Hop)
  in
  line 0 rack_snap;
  Array.iteri (fun i snap -> line (i + 1) snap) server_snaps;
  Buffer.contents buf
