open Reflex_engine
module Stage = Telemetry.Stage

(* SLO auditor: cross-reference the per-request breakdowns with the
   per-tenant SLO targets registered at tenant admission, and attribute
   each violation to the latency component that dominated it.  This is
   the answer to "the p95 blew the SLO — was it NIC queueing, token
   starvation, or die contention?" *)

type violation = {
  v_tenant : int;
  v_time : Time.t; (* completion time *)
  v_total : Time.t;
  v_dominant : int; (* index into Stage.component_names *)
}

let lc_slo tel tenant =
  match Telemetry.tenant_slo tel ~tenant with Some (true, us) -> Some us | _ -> None

(* Violations among complete traced requests of latency-critical
   tenants, in first-seen request order. *)
let violations tel bds =
  List.filter_map
    (fun (b : Trace_export.breakdown) ->
      match lc_slo tel b.b_tenant with
      | Some slo_us when Time.(b.b_total > us slo_us) ->
        Some
          {
            v_tenant = b.b_tenant;
            v_time = Time.add b.b_start b.b_total;
            v_total = b.b_total;
            v_dominant = Stage.dominant (Array.map Int64.to_int b.b_components);
          }
      | _ -> None)
    bds

let worst_us vs = List.fold_left (fun acc v -> Stdlib.max acc (Time.to_float_us v.v_total)) 0.0 vs

(* The majority of the violations' dominant components. *)
let majority vs =
  let counts = Array.make Stage.component_count 0 in
  List.iter (fun v -> counts.(v.v_dominant) <- counts.(v.v_dominant) + 1) vs;
  Stage.dominant counts

(* Violations bucketed into fixed windows per tenant, sorted by (start,
   tenant), each with its violations newest first. *)
let windows ~window vs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let key = (Int64.div v.v_time window, v.v_tenant) in
      Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[]))
    vs;
  List.sort compare (Hashtbl.fold (fun key mine acc -> (key, mine) :: acc) tbl [])

(* Labels of injected faults whose window overlaps [start, stop).  An
   open fault window (no stop mark yet) overlaps everything after its
   start. *)
let overlapping_faults tel ~start ~stop =
  List.filter_map
    (fun (label, f0, f1) ->
      let ends_after = match f1 with None -> true | Some f1 -> Time.(f1 > start) in
      if Time.(f0 < stop) && ends_after then Some label else None)
    (Telemetry.fault_windows tel)

let report ?window:(w = Time.ms 10) tel =
  if Time.(w <= Time.zero) then invalid_arg "Slo_audit.report: non-positive window";
  let bds = Trace_export.breakdowns tel in
  let vs = violations tel bds in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "== SLO audit ==\n";
  let lc =
    List.filter_map
      (fun t -> Option.map (fun slo_us -> (t, slo_us)) (lc_slo tel t))
      (Telemetry.tenants_with_slo tel)
  in
  if lc = [] then Buffer.add_string buf "no latency-critical tenants registered\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-8s %8s %9s %11s %10s  %s\n" "tenant" "slo_us" "requests" "violations"
         "worst_us" "dominant");
    List.iter
      (fun (tenant, slo_us) ->
        let mine = List.filter (fun v -> v.v_tenant = tenant) vs in
        let requests =
          List.length (List.filter (fun (b : Trace_export.breakdown) -> b.b_tenant = tenant) bds)
        in
        Buffer.add_string buf
          (Printf.sprintf "t%-7d %8d %9d %11d %10.1f  %s\n" tenant slo_us requests
             (List.length mine) (worst_us mine)
             (if mine = [] then "-" else Stage.component_names.(majority mine))))
      lc;
    let ws = windows ~window:w vs in
    let have_faults = Telemetry.fault_windows tel <> [] in
    if ws <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf "-- violation windows (%.1fms) --\n" (Time.to_float_ms w));
      Buffer.add_string buf
        (Printf.sprintf "%-10s %-8s %6s %10s  %-14s %s\n" "t_ms" "tenant" "count" "worst_us"
           "dominant"
           (if have_faults then "faults" else ""));
      List.iter
        (fun ((slot, tenant), mine) ->
          let start = Int64.mul slot w in
          let faults =
            if not have_faults then ""
            else
              match overlapping_faults tel ~start ~stop:(Time.add start w) with
              | [] -> "-"
              | labels -> String.concat "," labels
          in
          Buffer.add_string buf
            (Printf.sprintf "%-10.1f t%-7d %6d %10.1f  %-14s %s\n" (Time.to_float_ms start) tenant
               (List.length mine) (worst_us mine)
               Stage.component_names.(majority mine)
               faults))
        ws
    end;
    if have_faults then Buffer.add_string buf (Telemetry.faults_report tel)
  end;
  Buffer.contents buf
