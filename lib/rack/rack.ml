open Reflex_engine
open Reflex_net
open Reflex_proto
open Reflex_client
module Server = Reflex_core.Server
module Control_plane = Reflex_core.Control_plane
module Global_control = Reflex_core.Global_control
module Slo = Reflex_qos.Slo
module Telemetry = Reflex_telemetry.Telemetry
module Flight = Reflex_obs.Flight
module Hdr = Reflex_stats.Hdr_histogram

(* One tenant connection to one server.  [outstanding] counts dispatches
   the RACK has committed to this attachment — including reads still
   sitting in the ingress-delay window before Client_lib sees them — so
   drain never unregisters a connection with work en route. *)
type attach = {
  a_server : int;
  a_conn : Client_lib.t;
  mutable a_outstanding : int;
}

type tenant = {
  tid : int;
  slo : Message.slo;
  slo_bound : Time.t;  (* latency_us as Time.t; zero for best-effort *)
  mutable home : int;
  mutable replicas : int array;  (* server indices, home in slot 0 at birth *)
  mutable conns : attach list;  (* one per live replica *)
  mutable draining : attach list;  (* migrated-away homes awaiting drain *)
  mutable t_dispatched : int;
}

(* Rack trace hooks (armed by [lib/rack_obs]; inert by default).  The
   dispatch hook returns a recorder slot id (or -1 when the tracer elects
   not to track the request); the slot threads through issue/complete so
   the recorder never searches for its own state on the hot path. *)
type tracer = {
  tr_dispatch :
    tenant:int -> server:int -> sampled:int -> slo_bound:Time.t -> now:Time.t -> int;
  tr_issue : slot:int -> server:int -> tenant:int -> req:int64 -> now:Time.t -> unit;
  tr_complete : slot:int -> ok:bool -> now:Time.t -> unit;
  tr_migrate : tenant:int -> src:int -> dst:int -> now:Time.t -> unit;
}

let null_tracer =
  {
    tr_dispatch = (fun ~tenant:_ ~server:_ ~sampled:_ ~slo_bound:_ ~now:_ -> -1);
    tr_issue = (fun ~slot:_ ~server:_ ~tenant:_ ~req:_ ~now:_ -> ());
    tr_complete = (fun ~slot:_ ~ok:_ ~now:_ -> ());
    tr_migrate = (fun ~tenant:_ ~src:_ ~dst:_ ~now:_ -> ());
  }

type t = {
  sim : Sim.t;
  fabric : Fabric.t;
  link : Link.t;
  control : Global_control.t;
  servers : Server.t array;
  hosts : Fabric.host array;  (* shared load-generator hosts *)
  mutable next_host : int;
  policy : Policy.t;
  (* balancing state, indexed by absolute server index *)
  sampled : int array;  (* probe-aged queue depths *)
  exact : int array;  (* fresh rack-tracked in-flight *)
  disp : int array;  (* cumulative dispatches *)
  last_probe : Time.t array;  (* per-server instant of the last probe sample *)
  (* tenants *)
  tenants : (int, tenant) Hashtbl.t;  (* id -> tenant, LOOKUP ONLY *)
  mutable tenants_rev : tenant list;  (* registration order, reversed *)
  (* rack-wide accounting *)
  hist : Hdr.t;
  mutable completed : int;
  mutable lc_dispatched : int;
  mutable errors : int;
  mutable slo_total : int;
  mutable slo_ok : int;
  mutable migrations : int;
  tel : Telemetry.t;
  fl : Flight.t;
  mutable tracer : tracer;
  mutable tracer_on : bool;
}

let server_name i = Printf.sprintf "rack-%02d" i

let slo_of_message (m : Message.slo) =
  if m.Message.latency_critical then
    Slo.latency_critical ~latency_us:m.Message.latency_us
      ~iops:(float_of_int m.Message.iops) ~read_pct:m.Message.read_pct
  else Slo.best_effort ~read_pct:m.Message.read_pct ()

(* Build [f 0 :: f 1 :: ...] with f applied in ascending index order —
   Array.init's application order is unspecified, and server/host
   construction splits the simulation PRNG, so order is part of the
   deterministic contract here. *)
let init_ordered n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f i :: acc) in
  Array.of_list (go 0 [])

let create sim ~n_servers ?(n_threads = 1) ?profile ?(policy = Policy.Po2c)
    ?link ?(seed = 0xBACC5EEDL) ?(telemetry = Telemetry.disabled)
    () =
  if n_servers < 1 then invalid_arg "Rack.create: n_servers < 1";
  let fabric = Fabric.create sim () in
  let link = match link with Some l -> l | None -> Link.create ~n:n_servers () in
  if Link.n_ports link <> n_servers then invalid_arg "Rack.create: link port count";
  let control = Global_control.create () in
  let servers =
    init_ordered n_servers (fun i ->
        Server.create sim ~fabric ?profile ~n_threads
          ~seed:(Int64.add seed (Int64.of_int (1000 + i)))
          ~telemetry ())
  in
  Array.iteri (fun i srv -> Global_control.add_server control ~name:(server_name i) srv) servers;
  let hosts =
    init_ordered 16 (fun i ->
        Fabric.add_host fabric ~name:(Printf.sprintf "rack-lg%02d" i)
          ~stack:Stack_model.ix_client)
  in
  let t =
    {
      sim;
      fabric;
      link;
      control;
      servers;
      hosts;
      next_host = 0;
      policy = Policy.create policy ~prng:(Prng.create (Int64.add seed 0x9E37L));
      sampled = Array.make n_servers 0;
      exact = Array.make n_servers 0;
      disp = Array.make n_servers 0;
      last_probe = Array.make n_servers (Sim.now sim);
      tenants = Hashtbl.create 4096;
      tenants_rev = [];
      hist = Hdr.create ();
      completed = 0;
      lc_dispatched = 0;
      errors = 0;
      slo_total = 0;
      slo_ok = 0;
      migrations = 0;
      tel = telemetry;
      fl = Telemetry.flight telemetry;
      tracer = null_tracer;
      tracer_on = false;
    }
  in
  if Telemetry.enabled telemetry then begin
    for i = 0 to n_servers - 1 do
      Telemetry.register_gauge telemetry
        (Printf.sprintf "rack/s%02d/inflight" i)
        (fun () -> float_of_int t.exact.(i));
      (* Probe-cache age: how stale the jsq/po2c sampled depth for this
         server is right now.  Exposes balancer herding risk directly. *)
      Telemetry.register_gauge telemetry
        (Printf.sprintf "rack/s%02d/probe_age_us" i)
        (fun () -> Time.to_float_us (Time.diff (Sim.now t.sim) t.last_probe.(i)))
    done;
    Telemetry.register_gauge telemetry "rack/probe_age_us" (fun () ->
        let oldest = ref Time.zero in
        Array.iter
          (fun p ->
            let age = Time.diff (Sim.now t.sim) p in
            if Time.(age > !oldest) then oldest := age)
          t.last_probe;
        Time.to_float_us !oldest);
    Telemetry.register_gauge telemetry "rack/policy/dispatched" (fun () ->
        float_of_int t.lc_dispatched);
    Telemetry.register_gauge telemetry "rack/migrations" (fun () ->
        float_of_int t.migrations)
  end;
  t

let set_tracer t tr =
  t.tracer <- tr;
  t.tracer_on <- true

let sim t = t.sim
let n_servers t = Array.length t.servers
let server t i = t.servers.(i)
let control t = t.control
let policy_kind t = Policy.kind t.policy
let latency_hist t = t.hist
let completed t = t.completed
let lc_dispatched t = t.lc_dispatched
let errors t = t.errors
let slo_total t = t.slo_total
let slo_ok t = t.slo_ok
let migrations t = t.migrations
let sampled_depths t = Array.copy t.sampled
let exact_inflight t = Array.copy t.exact
let dispatched t = Array.copy t.disp

let sample_probes t =
  let now = Sim.now t.sim in
  List.iteri
    (fun i p ->
      t.sampled.(i) <- p.Global_control.probe_queue_depth;
      t.last_probe.(i) <- now)
    (Global_control.probes t.control)

let find_tenant t id =
  match Hashtbl.find_opt t.tenants id with
  | Some ten -> ten
  | None -> invalid_arg (Printf.sprintf "Rack: unknown tenant %d" id)

let tenant_home t ~tenant = (find_tenant t tenant).home
let tenant_replicas t ~tenant = Array.copy (find_tenant t tenant).replicas

let hottest_tenant_on t ~server =
  (* registration order; strict [>] keeps the earliest on ties *)
  List.fold_left
    (fun acc ten ->
      if ten.home <> server then acc
      else
        match acc with
        | Some best when best.t_dispatched >= ten.t_dispatched -> acc
        | _ -> Some ten)
    None
    (List.rev t.tenants_rev)
  |> Option.map (fun ten -> ten.tid)

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let index_of_name name =
  (* names are "rack-NN"; parse rather than scan *)
  match int_of_string_opt (String.sub name 5 (String.length name - 5)) with
  | Some i -> i
  | None -> invalid_arg ("Rack: foreign server name " ^ name)

let connect_to t idx =
  let host = t.hosts.(t.next_host) in
  t.next_host <- (t.next_host + 1) mod Array.length t.hosts;
  Client_lib.connect t.sim t.fabric
    ~server_host:(Server.host t.servers.(idx))
    ~accept:(Server.accept t.servers.(idx))
    ~stack:Stack_model.ix_client ~host ~telemetry:t.tel ()

(* Drive the simulation in short slices until the registration answer
   lands (same shape as the experiment harness's register_sync: a full
   drain would also run any load already scheduled on this sim). *)
let register_sync t conn ~tenant ~slo =
  let result = ref None in
  Client_lib.register conn ~tenant ~slo (fun s -> result := Some s);
  let deadline = Time.add (Sim.now t.sim) (Time.ms 50) in
  let rec wait () =
    if !result = None && Time.(Sim.now t.sim < deadline) && Sim.live_pending t.sim > 0
    then begin
      ignore (Sim.run ~until:(Time.add (Sim.now t.sim) (Time.us 200)) t.sim);
      wait ()
    end
  in
  wait ();
  match !result with
  | Some s -> s
  | None -> failwith "Rack.add_tenant: registration did not complete"

let rec add_tenant t ~id ~(slo : Message.slo) ~replicas =
  if replicas < 1 then invalid_arg "Rack.add_tenant: replicas < 1";
  if Hashtbl.mem t.tenants id then invalid_arg "Rack.add_tenant: duplicate id";
  let qslo = slo_of_message slo in
  (* Pick target servers first (exclusion set grows with each pick so
     replicas land on distinct servers), then register on each; the
     wire registration is the reservation of record, so a refusal just
     shrinks the replica set. *)
  let rec attach acc_names acc k =
    if k = 0 then List.rev acc
    else
      match Global_control.place_excluding_set t.control ~slo:qslo ~excluding:acc_names with
      | None -> List.rev acc
      | Some p ->
        let idx = index_of_name p.Global_control.server_name in
        let conn = connect_to t idx in
        let acc_names = p.Global_control.server_name :: acc_names in
        (match register_sync t conn ~tenant:id ~slo with
        | Message.Ok ->
          attach acc_names ({ a_server = idx; a_conn = conn; a_outstanding = 0 } :: acc) (k - 1)
        | _ -> attach acc_names acc (k - 1))
  in
  finish_add t ~id ~slo (attach [] [] replicas)

(* Pinned registration, bypassing placement: background/best-effort
   tenants that must live on one specific server (the bakeoff's uneven
   soak load), or tests that need a known topology. *)
and add_tenant_on t ~id ~(slo : Message.slo) ~server =
  if server < 0 || server >= Array.length t.servers then
    invalid_arg "Rack.add_tenant_on: server";
  if Hashtbl.mem t.tenants id then invalid_arg "Rack.add_tenant_on: duplicate id";
  let conn = connect_to t server in
  match register_sync t conn ~tenant:id ~slo with
  | Message.Ok ->
    finish_add t ~id ~slo [ { a_server = server; a_conn = conn; a_outstanding = 0 } ]
  | _ -> `Rejected

and finish_add t ~id ~slo = function
  | [] -> `Rejected
  | (home_attach :: _) as conns ->
    let replicas = Array.of_list (List.map (fun a -> a.a_server) conns) in
    let ten =
      {
        tid = id;
        slo;
        slo_bound = (if slo.Message.latency_critical then Time.us slo.Message.latency_us else Time.zero);
        home = home_attach.a_server;
        replicas;
        conns;
        draining = [];
        t_dispatched = 0;
      }
    in
    Hashtbl.add t.tenants id ten;
    t.tenants_rev <- ten :: t.tenants_rev;
    `Placed (Array.copy replicas)

(* ------------------------------------------------------------------ *)
(* Request path                                                        *)
(* ------------------------------------------------------------------ *)

let drain ten =
  ten.draining <-
    List.filter
      (fun a ->
        if a.a_outstanding = 0 && Client_lib.inflight a.a_conn = 0 then begin
          Client_lib.unregister a.a_conn (fun () -> ());
          false
        end
        else true)
      ten.draining

let dispatch_read t ?on_complete ~tenant ~lba ~len () =
  let ten = find_tenant t tenant in
  let s = Policy.pick t.policy ~candidates:ten.replicas ~sampled:t.sampled ~exact:t.exact in
  let a =
    match List.find_opt (fun a -> a.a_server = s) ten.conns with
    | Some a -> a
    | None -> invalid_arg "Rack.dispatch_read: replica without attachment"
  in
  t.exact.(s) <- t.exact.(s) + 1;
  t.disp.(s) <- t.disp.(s) + 1;
  if ten.slo.Message.latency_critical then t.lc_dispatched <- t.lc_dispatched + 1;
  ten.t_dispatched <- ten.t_dispatched + 1;
  a.a_outstanding <- a.a_outstanding + 1;
  let t0 = Sim.now t.sim in
  if Flight.enabled t.fl then
    Flight.record t.fl ~now:t0 ~kind:Flight.Kind.Balance ~a:s
      ~b:(Policy.kind_index (Policy.kind t.policy))
      ~v:(float_of_int t.sampled.(s));
  (* Hop 0 (pick): the tracer allocates a slot at the balancing instant;
     -1 (tracer off, or slot table full) disables the remaining hop
     stamps for this request at one int test each. *)
  let slot =
    if t.tracer_on then
      t.tracer.tr_dispatch ~tenant ~server:s ~sampled:t.sampled.(s)
        ~slo_bound:ten.slo_bound ~now:t0
    else -1
  in
  let complete status ~latency:_ =
    t.exact.(s) <- t.exact.(s) - 1;
    a.a_outstanding <- a.a_outstanding - 1;
    t.completed <- t.completed + 1;
    if status <> Message.Ok then t.errors <- t.errors + 1;
    (* End-to-end from the balancing decision, so the charged ingress
       delay of the chosen port is part of what the SLO sees.  Only
       latency-critical completions enter the histogram: the rack's
       percentiles are an SLO audit, and best-effort soak traffic has
       no bound to audit against. *)
    if ten.slo.Message.latency_critical then begin
      let e2e = Time.diff (Sim.now t.sim) t0 in
      Hdr.record t.hist e2e;
      t.slo_total <- t.slo_total + 1;
      if Time.(e2e <= ten.slo_bound) then t.slo_ok <- t.slo_ok + 1
    end;
    if slot >= 0 then
      t.tracer.tr_complete ~slot ~ok:(status = Message.Ok) ~now:(Sim.now t.sim);
    if ten.draining <> [] then drain ten;
    match on_complete with Some k -> k status | None -> ()
  in
  let issue () =
    (* Hop 1 (ingress done / client issue): read the connection's next
       request id just before [read] assigns it, so the server-side hop
       stamps for (tenant, req) correlate back to this slot. *)
    if slot >= 0 then
      t.tracer.tr_issue ~slot ~server:s ~tenant
        ~req:(Client_lib.next_req_id a.a_conn)
        ~now:(Sim.now t.sim);
    Client_lib.read a.a_conn ~lba ~len complete
  in
  let d = Link.ingress t.link s in
  if Time.equal d Time.zero then issue ()
  else ignore (Sim.at t.sim (Time.add t0 d) issue)

(* ------------------------------------------------------------------ *)
(* Migration                                                           *)
(* ------------------------------------------------------------------ *)

let record_migrate t ~tenant ~src ~dst =
  if Flight.enabled t.fl then
    Flight.record t.fl ~now:(Sim.now t.sim) ~kind:Flight.Kind.Migrate ~a:tenant ~b:dst
      ~v:(float_of_int src);
  if t.tracer_on then t.tracer.tr_migrate ~tenant ~src ~dst ~now:(Sim.now t.sim)

let migrate t ~tenant ~dst =
  let ten = find_tenant t tenant in
  if dst < 0 || dst >= Array.length t.servers then invalid_arg "Rack.migrate: dst";
  if dst = ten.home then `Noop
  else if Array.exists (fun r -> r = dst) ten.replicas then begin
    (* Destination already holds a replica: the home pointer is the only
       thing that moves — no wire traffic, no drain. *)
    let src = ten.home in
    ten.home <- dst;
    t.migrations <- t.migrations + 1;
    record_migrate t ~tenant ~src ~dst;
    `Flipped
  end
  else if
    not (Control_plane.can_admit (Server.control_plane t.servers.(dst)) ~slo:(slo_of_message ten.slo))
  then `No_capacity
  else begin
    let src = ten.home in
    let conn = connect_to t dst in
    (* Register-then-flip: the tenant keeps serving from [src] until the
       destination acknowledges, then new dispatches steer to [dst] and
       the old attachment drains in the background. *)
    Client_lib.register conn ~tenant ~slo:ten.slo (fun status ->
        if status = Message.Ok then
          if ten.home = src then begin
            match List.find_opt (fun a -> a.a_server = src) ten.conns with
            | Some old ->
              ten.conns <-
                { a_server = dst; a_conn = conn; a_outstanding = 0 }
                :: List.filter (fun a -> a.a_server <> src) ten.conns;
              ten.replicas <- Array.map (fun r -> if r = src then dst else r) ten.replicas;
              ten.home <- dst;
              ten.draining <- old :: ten.draining;
              t.migrations <- t.migrations + 1;
              drain ten
            | None -> ()
          end
          else begin
            (* The tenant moved again while this registration was in
               flight (stale migration): release the attachment. *)
            ten.draining <-
              { a_server = dst; a_conn = conn; a_outstanding = 0 } :: ten.draining;
            drain ten
          end);
    record_migrate t ~tenant ~src ~dst;
    `Started
  end

let rebalance t ~tenant =
  let ten = find_tenant t tenant in
  let excluding = Array.to_list (Array.map server_name ten.replicas) in
  match
    Global_control.place_excluding_set t.control ~slo:(slo_of_message ten.slo) ~excluding
  with
  | None -> `No_target
  | Some p -> (
    match migrate t ~tenant ~dst:(index_of_name p.Global_control.server_name) with
    | `Started | `Flipped -> `Started
    | `Noop | `No_capacity -> `No_target)
