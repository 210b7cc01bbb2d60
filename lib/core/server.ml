open Reflex_engine
open Reflex_flash
open Reflex_net
open Reflex_proto
open Reflex_qos
open Reflex_telemetry

(* Barrier state (§4.1 extension).  Per tenant: the number of I/Os inside
   the server, the armed barrier (if any), and the FIFO of work buffered
   behind it.  A barrier completes once everything before it has; work
   after it waits. *)
type gate = {
  mutable outstanding : int;
  mutable armed : (Message.t Tcp_conn.t * int64) option;
  buffered : (unit -> unit) Queue.t;
}

let fresh_gate () = { outstanding = 0; armed = None; buffered = Queue.create () }

(* Everything the server knows about one tenant id.  [thread] (-1 when
   unplaced) and [conns] hold while the tenant is registered; unregister
   clears them and installs a fresh [gate].  [completed] and [deficits]
   outlive an unregister: a migrated tenant's old home still reports
   what it served. *)
type tenant = {
  id : int;
  mutable thread : int;
  mutable conns : int;
  mutable completed : int;
  mutable deficits : int; (* NEG_LIMIT hits *)
  mutable gate : gate;
}

type inflight = {
  conn : Message.t Tcp_conn.t;
  req_id : int64;
  bytes : int;
  tenant : tenant;
  t_arrive : Time.t; (* server-side arrival, for per-tenant latency *)
}

type t = {
  sim : Sim.t;
  host : Fabric.host;
  device : Nvme_model.t;
  cost_model : Cost_model.t;
  control_plane : Control_plane.t;
  acl : Acl.t;
  qos : bool;
  threads : inflight Dataplane.t array;
  tenants : (int, tenant) Hashtbl.t;
  mutable fleet_ro : bool;
  mutable completed : int;
  tel : Telemetry.t;
  tel_on : bool;
  stages : Reflex_obs.Stage.sink;
}

let tenant_of t id =
  match Hashtbl.find_opt t.tenants id with
  | Some r -> r
  | None ->
    let r = { id; thread = -1; conns = 0; completed = 0; deficits = 0; gate = fresh_gate () } in
    Hashtbl.replace t.tenants id r;
    r

(* An armed barrier fires once the tenant's in-server I/O count drains to
   zero; buffered work then replays in order until the next barrier
   re-arms or the buffer empties. *)
let release_gate g =
  let rec drain () =
    if g.armed = None then
      match Queue.take_opt g.buffered with
      | Some thunk ->
        thunk ();
        drain ()
      | None -> ()
  in
  match g.armed with
  | Some (conn, req_id) when g.outstanding = 0 ->
    g.armed <- None;
    let msg = Message.Barrier_resp { req_id } in
    Tcp_conn.send_to_client conn ~size:(Codec.encoded_size msg) msg;
    drain ()
  | Some _ | None -> ()

let respond t ~kind payload =
  let { conn; req_id; bytes; tenant; t_arrive } = payload in
  t.completed <- t.completed + 1;
  tenant.completed <- tenant.completed + 1;
  let msg =
    match (kind : Io_op.kind) with
    | Io_op.Read -> Message.Read_resp { req_id; status = Message.Ok; len = bytes }
    | Io_op.Write -> Message.Write_resp { req_id; status = Message.Ok }
  in
  Tcp_conn.send_to_client conn ~size:(Codec.encoded_size msg) msg;
  if Reflex_obs.Stage.armed t.stages Reflex_obs.Stage.Tx_resp then
    Reflex_obs.Stage.stamp t.stages ~tenant:tenant.id ~req:req_id ~now:(Sim.now t.sim)
      Reflex_obs.Stage.Tx_resp;
  if t.tel_on then
    Telemetry.record_tenant_latency t.tel ~tenant:tenant.id (Time.diff (Sim.now t.sim) t_arrive);
  let g = tenant.gate in
  g.outstanding <- g.outstanding - 1;
  release_gate g

(* The scheduler notifies the control plane when a tenant hits its token
   deficit limit — consistent bursting above the reserved rate means the
   SLO is wrong and needs renegotiation (paper §3.2.2/§4.3). *)
let note_deficit t ~tenant =
  let r = tenant_of t tenant in
  r.deficits <- r.deficits + 1

(* A request still in a receive ring when its tenant unregisters finds
   no tenant when it is parsed.  If the tenant has re-registered on
   another thread since, the request follows it there; otherwise the
   client gets an error instead of silence. *)
let reroute t ~tenant_id ~kind ~bytes payload =
  let thread = payload.tenant.thread in
  if thread >= 0 then Dataplane.receive t.threads.(thread) ~tenant_id ~kind ~bytes payload
  else
    let msg = Message.Error_resp { req_id = payload.req_id; status = Message.Bad_request } in
    Tcp_conn.send_to_client payload.conn ~size:(Codec.encoded_size msg) msg

let create sim ~fabric ?(profile = Device_profile.device_a) ?(n_threads = 1)
    ?(costs = Costs.default) ?acl ?token_rate_fn ?(qos = true) ?neg_limit ?donate_fraction
    ?cost_model ?seed ?(telemetry = Telemetry.disabled) () =
  if n_threads < 1 then invalid_arg "Server.create: n_threads < 1";
  let seed = Option.value seed ~default:0x5EF1E45EEDL in
  let device = Nvme_model.create ~telemetry sim ~profile ~prng:(Prng.create seed) in
  let cost_model = Option.value cost_model ~default:(Cost_model.of_profile profile) in
  let control_plane = Control_plane.create ?token_rate_fn ~profile ~cost_model () in
  let acl = match acl with Some a -> a | None -> Acl.create_permissive () in
  let global = Global_bucket.create ~n_threads in
  let host = Fabric.add_host fabric ~name:"reflex-server" ~stack:Stack_model.dataplane_server in
  let stages = Reflex_obs.Stage.sink ~lane:(Fabric.host_id host) in
  Telemetry.attach_stages telemetry stages;
  let rec t =
    lazy
      {
        sim;
        host;
        device;
        cost_model;
        control_plane;
        acl;
        qos;
        threads =
          Array.init n_threads (fun thread_id ->
              Dataplane.create sim ~thread_id ~qp:(Queue_pair.create device) ~device ~cost_model
                ~global ~costs ?neg_limit ?donate_fraction
                ~notify_control_plane:(fun tenant -> note_deficit (Lazy.force t) ~tenant)
                ~reroute:(fun ~tenant_id ~kind ~bytes payload ->
                  reroute (Lazy.force t) ~tenant_id ~kind ~bytes payload)
                ~telemetry ~stages
                ~trace_id:(fun p -> p.req_id)
                ~respond:(fun ~kind payload -> respond (Lazy.force t) ~kind payload)
                ());
        tenants = Hashtbl.create 64;
        fleet_ro = true;
        completed = 0;
        tel = telemetry;
        tel_on = Telemetry.enabled telemetry;
        stages;
      }
  in
  Lazy.force t

let host t = t.host
let device t = t.device
let control_plane t = t.control_plane
let n_threads t = Array.length t.threads

(* Pick the thread with the fewest tenants for a new tenant. *)
let least_loaded_thread t =
  let best = ref 0 and best_count = ref max_int in
  for i = 0 to Array.length t.threads - 1 do
    let c = Dataplane.tenant_count t.threads.(i) in
    if c < !best_count then begin
      best := i;
      best_count := c
    end
  done;
  !best

(* Push control-plane token rates to dataplane threads.  LC rates depend
   only on the tenant's own SLO; the BE fair share (and hence every BE
   tenant's rate) moves whenever registrations change, so those are
   re-pushed on each change.  Each thread's scheduler holds its own LC and
   BE sets, so a push walks those.  With QoS disabled (Figure 5's "I/O
   sched disabled" configuration) every tenant gets an unbounded rate:
   requests flow straight to the device. *)
let effective_rate t rate = if t.qos then rate else 1e15

let push_be_rates t =
  let share = effective_rate t (Control_plane.be_share t.control_plane) in
  Array.iter (fun dp -> Dataplane.set_be_rate dp share) t.threads

(* Every tenant's rate: the BE share, and each LC tenant's own reservation
   under the current pricing. *)
let push_rates t =
  push_be_rates t;
  let lc_rate id =
    Option.map (effective_rate t) (Control_plane.token_rate_for t.control_plane ~id)
  in
  Array.iter (fun dp -> Dataplane.set_lc_rates dp lc_rate) t.threads

(* LC rates depend only on their own SLO — except that they are all
   repriced when the fleet's read-only status flips; BE shares move on
   every change. *)
let refresh_rates t =
  let ro = Control_plane.fleet_read_only t.control_plane in
  if ro <> t.fleet_ro then begin
    t.fleet_ro <- ro;
    push_rates t
  end
  else push_be_rates t

let slo_of_message (m : Message.slo) =
  if m.Message.latency_critical then
    Slo.latency_critical ~latency_us:m.Message.latency_us
      ~iops:(float_of_int m.Message.iops) ~read_pct:m.Message.read_pct
  else Slo.best_effort ~read_pct:m.Message.read_pct ()

let handle_register t ~tenant ~(slo : Message.slo) ~registered_handle =
  if not (Acl.connection_allowed t.acl ~tenant) then
    Some (Message.Registered { handle = tenant; status = Message.Denied })
  else if Control_plane.is_registered t.control_plane ~id:tenant then begin
    (* Another connection joins an existing tenant. *)
    registered_handle := Some tenant;
    let r = tenant_of t tenant in
    r.conns <- r.conns + 1;
    Dataplane.add_conns t.threads.(r.thread) 1;
    Some (Message.Registered { handle = tenant; status = Message.Ok })
  end
  else begin
    let slo = slo_of_message slo in
    match Control_plane.admit t.control_plane ~id:tenant ~slo with
    | Control_plane.Rejected_no_capacity ->
      Some (Message.Registered { handle = tenant; status = Message.No_capacity })
    | Control_plane.Rejected_duplicate ->
      (* Unreachable: [is_registered] was checked above, and nothing can
         register the id between the check and the admit on the
         single-threaded event loop; answer defensively anyway. *)
      Some (Message.Registered { handle = tenant; status = Message.Bad_request })
    | Control_plane.Admitted ->
      let thread = least_loaded_thread t in
      let rate =
        effective_rate t
          (Option.value (Control_plane.token_rate_for t.control_plane ~id:tenant) ~default:0.0)
      in
      Dataplane.add_tenant t.threads.(thread) ~id:tenant ~slo ~token_rate:rate;
      (* SLO headroom: the tenant's latency budget minus the achieved
         server-side p95, sampled like any other gauge. *)
      if t.tel_on && Slo.is_latency_critical slo then begin
        let hist = Telemetry.tenant_latency_hist t.tel ~tenant in
        let target = float_of_int slo.Slo.latency_us in
        Telemetry.register_gauge t.tel
          (Printf.sprintf "qos/t%d/slo_headroom_us" tenant)
          (fun () -> target -. Reflex_stats.Hdr_histogram.percentile_us hist 95.0)
      end;
      let r = tenant_of t tenant in
      r.thread <- thread;
      r.conns <- 1;
      Dataplane.add_conns t.threads.(thread) 1;
      (* A new LC reservation (or a new BE peer) moves every BE share; LC
         rates change only if the fleet's read-only pricing flipped. *)
      refresh_rates t;
      registered_handle := Some tenant;
      Some (Message.Registered { handle = tenant; status = Message.Ok })
  end

let handle_unregister t ~handle =
  (match Hashtbl.find_opt t.tenants handle with
  | Some r ->
    if r.thread >= 0 then begin
      Dataplane.remove_tenant t.threads.(r.thread) ~id:handle;
      Dataplane.add_conns t.threads.(r.thread) (-r.conns)
    end;
    r.thread <- -1;
    r.conns <- 0;
    r.gate <- fresh_gate ()
  | None -> ());
  if t.tel_on then Telemetry.unregister t.tel (Printf.sprintf "qos/t%d/slo_headroom_us" handle);
  Control_plane.forget t.control_plane ~id:handle;
  refresh_rates t;
  Some (Message.Unregistered { handle })

let send_reply conn msg = Tcp_conn.send_to_client conn ~size:(Codec.encoded_size msg) msg

let rec handle_io t conn ~handle ~kind ~req_id ~lba ~len ~registered_handle =
  match !registered_handle with
  | Some h when h = handle -> (
    let r = tenant_of t handle in
    let g = r.gate in
    if g.armed <> None then begin
      (* Behind a barrier: replay in arrival order once it fires. *)
      Queue.add
        (fun () ->
          match handle_io t conn ~handle ~kind ~req_id ~lba ~len ~registered_handle with
          | Some reply -> send_reply conn reply
          | None -> ())
        g.buffered;
      None
    end
    else
      let lba_count = Io_op.sectors_of_bytes len in
      match Acl.check t.acl ~tenant:handle ~kind ~lba ~lba_count with
      | Acl.Denied_permission -> Some (Message.Error_resp { req_id; status = Message.Denied })
      | Acl.Denied_range -> Some (Message.Error_resp { req_id; status = Message.Out_of_range })
      | Acl.Allowed ->
        if r.thread < 0 then Some (Message.Error_resp { req_id; status = Message.Bad_request })
        else begin
          g.outstanding <- g.outstanding + 1;
          Dataplane.receive t.threads.(r.thread) ~tenant_id:handle ~kind ~bytes:len
            { conn; req_id; bytes = len; tenant = r; t_arrive = Sim.now t.sim };
          None
        end)
  | _ -> Some (Message.Error_resp { req_id; status = Message.Denied })

let rec handle_barrier t conn ~handle ~req_id ~registered_handle =
  match !registered_handle with
  | Some h when h = handle ->
    let g = (tenant_of t handle).gate in
    if g.armed <> None then begin
      Queue.add
        (fun () ->
          match handle_barrier t conn ~handle ~req_id ~registered_handle with
          | Some reply -> send_reply conn reply
          | None -> ())
        g.buffered;
      None
    end
    else if g.outstanding = 0 then Some (Message.Barrier_resp { req_id })
    else begin
      g.armed <- Some (conn, req_id);
      None
    end
  | _ -> Some (Message.Error_resp { req_id; status = Message.Denied })

let accept t conn =
  (* Per-connection state lives in this closure: which tenant the
     connection has registered for. *)
  let registered_handle = ref None in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ ->
      let reply =
        match msg with
        | Message.Register { tenant; slo } ->
          handle_register t ~tenant ~slo ~registered_handle
        | Message.Unregister { handle } -> handle_unregister t ~handle
        | Message.Read_req { handle; req_id; lba; len } ->
          handle_io t conn ~handle ~kind:Io_op.Read ~req_id ~lba ~len ~registered_handle
        | Message.Write_req { handle; req_id; lba; len } ->
          handle_io t conn ~handle ~kind:Io_op.Write ~req_id ~lba ~len ~registered_handle
        | Message.Barrier_req { handle; req_id } ->
          handle_barrier t conn ~handle ~req_id ~registered_handle
        | Message.Registered _ | Message.Unregistered _ | Message.Read_resp _
        | Message.Write_resp _ | Message.Barrier_resp _ | Message.Error_resp _ ->
          Some (Message.Error_resp { req_id = 0L; status = Message.Bad_request })
      in
      match reply with
      | Some m -> Tcp_conn.send_to_client conn ~size:(Codec.encoded_size m) m
      | None -> ())

let requests_completed t = t.completed

(* [Hashtbl.find] with a handler, not [find_opt]: no option per call. *)
let deficit_notifications t ~tenant =
  match Hashtbl.find t.tenants tenant with r -> r.deficits | exception Not_found -> 0

let tenant_completed t ~tenant =
  match Hashtbl.find t.tenants tenant with r -> r.completed | exception Not_found -> 0

let tokens_spent t =
  Array.fold_left (fun acc dp -> acc +. Dataplane.tokens_spent dp) 0.0 t.threads

(* Cumulative weighted tokens one tenant's submissions have cost.  Only
   the thread serving the tenant reports it, so the sum over threads is
   that thread's count (0 for an unregistered tenant). *)
let tenant_tokens_submitted t ~tenant =
  Array.fold_left
    (fun acc dp ->
      match Dataplane.tenant_tokens_submitted dp ~id:tenant with
      | Some x -> acc +. x
      | None -> acc)
    0.0 t.threads

let thread_utilizations t =
  Array.to_list (Array.map Dataplane.utilization t.threads)

(* Requests inside the server, wherever they sit (receive rings,
   software queues, NVMe in-flight), summed over every thread.  This is
   the signal the rack layer's JSQ and power-of-two-choices balancers
   probe. *)
let queue_depth t =
  let n = ref 0 in
  Array.iter (fun dp -> n := !n + Dataplane.queue_depth dp) t.threads;
  !n

let registered_tenants t = Control_plane.registered_count t.control_plane

(* Every dataplane thread stamps through this one sink, so a rack tracer
   that attaches here sees a tenant's stages whichever thread it lands
   on. *)
let stages t = t.stages

(* ---------------- resilience hooks (lib/faults) ---------------- *)

let inject_thread_stall t ~thread ~duration =
  if thread < 0 || thread >= Array.length t.threads then
    invalid_arg "Server.inject_thread_stall: thread out of range";
  Dataplane.inject_stall t.threads.(thread) ~duration

(* Degradation re-pricing (§4.3 under faults): the device lost capacity
   (die failure or slowdown), so every token rate the control plane hands
   out must shrink immediately — admission, BE shares and already-pushed
   LC rates alike.  The factor follows the device's healthy fraction,
   floored at 0.05 so a fully-failed device degrades rather than zeroes
   every rate; a healthy device restores factor 1.0. *)
let reprice_from_device t =
  Control_plane.set_capacity_factor t.control_plane
    (Float.max 0.05 (Reflex_flash.Nvme_model.effective_capacity t.device));
  push_rates t
