open Reflex_engine
open Reflex_net
open Reflex_proto
open Reflex_telemetry

(* What a pending operation needs to be re-issued after a timeout. *)
type op = Op_read of { lba : int64; len : int } | Op_write of { lba : int64; len : int } | Op_barrier

type pending = {
  t0 : Time.t; (* first submission — latency spans every attempt *)
  pk : Message.status -> latency:Time.t -> unit;
  op : op;
  attempt : int; (* 0 = first try *)
  timer : Sim.event_id option; (* armed only when a retry policy is set *)
}

type t = {
  sim : Sim.t;
  conn : Message.t Tcp_conn.t;
  core : Resource.t;
  stack : Stack_model.t;
  client_host : Fabric.host;
  mutable next_req : int64;
  outstanding : (int64, pending) Hashtbl.t;
  mutable register_k : (Message.status -> unit) option;
  mutable unregister_k : (unit -> unit) option;
  mutable handle : int option;
  (* Resilience (lib/faults): [retry = None] (the default) keeps the
     pre-retry behaviour exactly — no deadline timers are armed, no
     retry PRNG exists, and requests wait forever like the paper's
     client.  The retry PRNG is private to this client, so arming
     retries perturbs no other component's randomness. *)
  retry : Retry.policy option;
  retry_prng : Prng.t;
  mutable retries : int;
  mutable timeouts : int;
  (* Lifecycle-span sink; [tel_on] copies its immutable enabled bit so
     the issue/complete hot paths pay one boolean test when tracing is
     off. *)
  tel : Telemetry.t;
  tel_on : bool;
  lane : int; (* the server host's fabric id: the span key's lane *)
  c_retries : Telemetry.counter; (* client/retries *)
  c_timeouts : Telemetry.counter; (* client/timeouts *)
}

let complete t req_id status =
  match Hashtbl.find_opt t.outstanding req_id with
  | Some p ->
    Hashtbl.remove t.outstanding req_id;
    (match p.timer with Some ev -> Sim.cancel t.sim ev | None -> ());
    (if t.tel_on && p.op <> Op_barrier then
       match t.handle with
       | Some tenant ->
         Telemetry.span t.tel ~now:(Sim.now t.sim) ~lane:t.lane ~tenant ~req_id
           Telemetry.Stage.Client_complete
       | None -> ());
    p.pk status ~latency:(Time.diff (Sim.now t.sim) p.t0)
  | None ->
    (* Unknown id: either a duplicate completion or a response that
       arrived after its deadline expired and the request was re-issued
       under a new id (at-least-once semantics) — drop it. *)
    ()

let dispatch t msg =
  match msg with
  | Message.Registered { handle; status } -> (
    if status = Message.Ok then t.handle <- Some handle;
    match t.register_k with
    | Some k ->
      t.register_k <- None;
      k status
    | None -> ())
  | Message.Unregistered _ -> (
    t.handle <- None;
    match t.unregister_k with
    | Some k ->
      t.unregister_k <- None;
      k ()
    | None -> ())
  | Message.Barrier_resp { req_id } -> complete t req_id Message.Ok
  | Message.Read_resp { req_id; status; _ }
  | Message.Write_resp { req_id; status }
  | Message.Error_resp { req_id; status } ->
    complete t req_id status
  | Message.Register _ | Message.Unregister _ | Message.Read_req _ | Message.Write_req _
  | Message.Barrier_req _ ->
    (* Server-to-client stream never carries requests; ignore. *)
    ()

let connect sim fabric ~server_host ~accept ~stack ?host ?(name = "client") ?retry
    ?(retry_seed = 0x2E7259_5EEDL) ?(telemetry = Telemetry.disabled) () =
  let client_host =
    match host with Some h -> h | None -> Fabric.add_host fabric ~name ~stack
  in
  let conn = Tcp_conn.connect ~telemetry fabric ~client:client_host ~server:server_host in
  let t =
    {
      sim;
      conn;
      core = Resource.create sim;
      stack;
      client_host;
      next_req = 1L;
      outstanding = Hashtbl.create 256;
      register_k = None;
      unregister_k = None;
      handle = None;
      retry = Option.map Retry.validate retry;
      retry_prng = Prng.create retry_seed;
      retries = 0;
      timeouts = 0;
      tel = telemetry;
      tel_on = Telemetry.enabled telemetry;
      lane = Fabric.host_id server_host;
      c_retries = Telemetry.counter telemetry "client/retries";
      c_timeouts = Telemetry.counter telemetry "client/timeouts";
    }
  in
  accept conn;
  (* Receive path: the client thread spends per-message CPU before the
     application sees the completion. *)
  Tcp_conn.set_client_handler conn (fun msg ~size:_ ->
      Resource.submit t.core ~service:t.stack.Stack_model.per_msg_cpu
        (fun () -> dispatch t msg));
  t

(* Transmit path: CPU first, then the wire. *)
let send t msg =
  Resource.submit t.core ~service:t.stack.Stack_model.per_msg_cpu (fun () ->
      Tcp_conn.send_to_server t.conn ~size:(Codec.encoded_size msg) msg)

let register t ~tenant ?(slo = Message.best_effort_slo) k =
  if t.register_k <> None then failwith "Client_lib.register: registration already in flight";
  t.register_k <- Some k;
  send t (Message.Register { tenant; slo })

let handle t = t.handle

let msg_of_op ~handle ~req_id = function
  | Op_read { lba; len } -> Message.Read_req { handle; req_id; lba; len }
  | Op_write { lba; len } -> Message.Write_req { handle; req_id; lba; len }
  | Op_barrier -> Message.Barrier_req { handle; req_id }

(* Issue one attempt of an operation.  With a retry policy armed, a
   per-attempt deadline timer expires into [on_timeout]; the timer is
   cancelled (closure dropped immediately, see Sim.cancel) when the
   response lands first.  Every attempt uses a fresh request id, so a
   late response to an abandoned attempt finds no outstanding entry and
   is dropped — re-issue is at-least-once, completion exactly-once.
   [prev] is the req_id of the attempt this one retries: the causal
   follows-from link chains the attempts into one span tree. *)
let rec issue ?prev t ~handle ~t0 ~attempt ~op pk =
  let req_id = t.next_req in
  t.next_req <- Int64.add req_id 1L;
  let timer =
    match t.retry with
    | None -> None
    | Some policy -> Some (Sim.after t.sim policy.Retry.timeout (fun () -> on_timeout t req_id))
  in
  Hashtbl.replace t.outstanding req_id { t0; pk; op; attempt; timer };
  if t.tel_on && op <> Op_barrier then begin
    Telemetry.span t.tel ~now:(Sim.now t.sim) ~lane:t.lane ~tenant:handle ~req_id
      Telemetry.Stage.Client_submit;
    match prev with
    | Some prev_id ->
      Telemetry.link t.tel ~now:(Sim.now t.sim) ~kind:Telemetry.Follows_from
        ~src_tenant:handle ~src_req:prev_id ~dst_tenant:handle ~dst_req:req_id
    | None -> ()
  end;
  send t (msg_of_op ~handle ~req_id op)

and on_timeout t req_id =
  match Hashtbl.find_opt t.outstanding req_id with
  | None -> () (* response won the race against the deadline *)
  | Some p -> (
    Hashtbl.remove t.outstanding req_id;
    t.timeouts <- t.timeouts + 1;
    if t.tel_on then Telemetry.incr t.c_timeouts;
    let policy = Option.get t.retry in
    let give_up () = p.pk Message.Timed_out ~latency:(Time.diff (Sim.now t.sim) p.t0) in
    if p.attempt >= policy.Retry.max_retries then give_up ()
    else begin
      t.retries <- t.retries + 1;
      if t.tel_on then Telemetry.incr t.c_retries;
      let delay = Retry.delay_for policy ~attempt:(p.attempt + 1) ~prng:t.retry_prng in
      ignore
        (Sim.after t.sim delay (fun () ->
             match t.handle with
             | Some h ->
               issue ~prev:req_id t ~handle:h ~t0:p.t0 ~attempt:(p.attempt + 1) ~op:p.op p.pk
             | None -> give_up ()))
    end)

let io t ~kind ~lba ~len k =
  match t.handle with
  | None -> failwith "Client_lib: not registered"
  | Some handle ->
    let op =
      match kind with `Read -> Op_read { lba; len } | `Write -> Op_write { lba; len }
    in
    issue t ~handle ~t0:(Sim.now t.sim) ~attempt:0 ~op k

let read t ~lba ~len k = io t ~kind:`Read ~lba ~len k
let write t ~lba ~len k = io t ~kind:`Write ~lba ~len k

let barrier t k =
  match t.handle with
  | None -> failwith "Client_lib: not registered"
  | Some handle -> issue t ~handle ~t0:(Sim.now t.sim) ~attempt:0 ~op:Op_barrier k

let unregister t k =
  match t.handle with
  | None -> failwith "Client_lib: not registered"
  | Some handle ->
    t.unregister_k <- Some k;
    send t (Message.Unregister { handle })

let next_req_id t = t.next_req
let inflight t = Hashtbl.length t.outstanding
let retries t = t.retries
let timeouts t = t.timeouts
