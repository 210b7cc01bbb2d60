open Reflex_qos

(* The pool is an assoc list in insertion order — deterministic by
   construction (no Hashtbl anywhere in this module), which the rack
   layer's reports and bakeoff tables rely on; see lint.manifest. *)
type t = { mutable pool : (string * Server.t) list }

let create () = { pool = [] }

let add_server t ~name server =
  if List.mem_assoc name t.pool then invalid_arg "Global_control.add_server: duplicate name";
  t.pool <- t.pool @ [ (name, server) ]

let servers t = t.pool

type placement = { server_name : string; server : Server.t }

type probe = {
  probe_name : string;
  probe_server : Server.t;
  probe_headroom : float;
  probe_queue_depth : int;
}

(* One probe per server, in insertion order.  Headroom is the unreserved
   LC token rate at the current strictest SLO; queue depth counts every
   request inside the server (rx rings, software queues, NVMe
   in-flight).  The rack layer samples these periodically, so balancers
   act on probe-aged (stale) state — the idealized oracle is the one
   that bypasses this and reads fresh counters. *)
let probes t =
  List.map
    (fun (probe_name, srv) ->
      let cp = Server.control_plane srv in
      {
        probe_name;
        probe_server = srv;
        probe_headroom = Control_plane.total_token_rate cp -. Control_plane.lc_reserved_rate cp;
        probe_queue_depth = Server.queue_depth srv;
      })
    t.pool

(* Smaller is better: SLO mismatch dominates, headroom breaks ties. *)
let score cp ~slo =
  let headroom = Control_plane.headroom_with cp ~candidate:slo in
  let mismatch =
    if not (Slo.is_latency_critical slo) then 0.0
    else
      match Control_plane.strictest_latency_us cp with
      | None -> 0.0 (* empty server: no one to disturb *)
      | Some strictest ->
        abs_float (log (float_of_int slo.Slo.latency_us /. strictest))
  in
  (mismatch, -.headroom)

let place t ~slo =
  let candidates =
    List.filter (fun (_, srv) -> Control_plane.can_admit (Server.control_plane srv) ~slo) t.pool
  in
  let best =
    List.fold_left
      (fun acc (name, srv) ->
        let s = score (Server.control_plane srv) ~slo in
        match acc with
        | Some (_, _, best_s) when compare best_s s <= 0 -> acc
        | _ -> Some (name, srv, s))
      None candidates
  in
  Option.map (fun (server_name, server, _) -> { server_name; server }) best

(* Placement restricted to servers outside [excluding]: replica
   selection (a replica set must span distinct servers) and migration
   (the tenant must leave its current replica set) both need to rule
   out several servers at once. *)
let place_excluding_set t ~slo ~excluding =
  let filtered =
    { pool = List.filter (fun (name, _) -> not (List.mem name excluding)) t.pool }
  in
  place filtered ~slo
