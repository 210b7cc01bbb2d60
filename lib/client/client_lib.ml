open Reflex_engine
open Reflex_net
open Reflex_proto
open Reflex_telemetry

(* Per request, the client allocates its message and the boxes at
   module edges (the [int64] request id, the latency handed to the
   continuation) and nothing else.  The core is a FIFO ring of messages
   whose head is in service, completed by one posted handler.  Requests
   in flight sit in a slot table keyed by [req_id land (capacity - 1)],
   the key stored for the check; its fields are arrays, and a freed slot
   is blanked so that no completed continuation stays pinned. *)

type kind = Read | Write | Barrier

type t = {
  sim : Sim.t;
  conn : Message.t Tcp_conn.t;
  stack : Stack_model.t;
  client_host : Fabric.host;
  (* the core: every sent and received message is charged
     [stack.per_msg_cpu] in FIFO order; [c_tx] tells a message to send
     from one received *)
  mutable c_msg : Message.t array;
  mutable c_tx : bool array;
  mutable c_head : int;
  mutable c_len : int;
  mutable h_core : int;
  mutable next_req : int64;
  (* outstanding requests, by slot *)
  mutable o_key : int array; (* the request id, -1 when free *)
  mutable o_t0 : int array; (* first submission, ns: latency spans every attempt *)
  mutable o_k : (Message.status -> latency:Time.t -> unit) array;
  mutable o_kind : kind array;
  mutable o_lba : int64 array;
  mutable o_len : int array;
  mutable o_attempt : int array; (* 0 = first try *)
  mutable o_timer : Sim.event_id array; (* armed only when a retry policy is set *)
  mutable inflight : int;
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

(* Static blanks for freed slots. *)
let blank_msg = Message.Barrier_resp { req_id = 0L }
let no_k _ ~latency:_ = ()

(* ---- the outstanding-request table ---- *)

(* The slot of request [id], or -1. *)
let find t id =
  let cap = Array.length t.o_key in
  if cap = 0 then -1
  else
    let s = id land (cap - 1) in
    if t.o_key.(s) = id then s else -1

(* Cold path: [id]'s slot is taken (an earlier request is still in
   flight [capacity] ids back).  Grow from capacity 1 by doubling until
   every live id and [id] have a slot of their own, i.e. until the
   capacity covers the span from the oldest live id to [id]. *)
let grow_outstanding t id =
  let cap = Array.length t.o_key in
  let oldest = ref id in
  for s = 0 to cap - 1 do
    let k = t.o_key.(s) in
    if k >= 0 && k < !oldest then oldest := k
  done;
  let ncap = ref (if cap = 0 then 1 else 2 * cap) in
  while !ncap <= id - !oldest do
    ncap := 2 * !ncap
  done;
  let ncap = !ncap in
  let key = Array.make ncap (-1)
  and t0 = Array.make ncap 0
  and k = Array.make ncap no_k
  and kind = Array.make ncap Barrier
  and lba = Array.make ncap 0L
  and len = Array.make ncap 0
  and attempt = Array.make ncap 0
  and timer = Array.make ncap Sim.no_event in
  for s = 0 to cap - 1 do
    if t.o_key.(s) >= 0 then begin
      let d = t.o_key.(s) land (ncap - 1) in
      key.(d) <- t.o_key.(s);
      t0.(d) <- t.o_t0.(s);
      k.(d) <- t.o_k.(s);
      kind.(d) <- t.o_kind.(s);
      lba.(d) <- t.o_lba.(s);
      len.(d) <- t.o_len.(s);
      attempt.(d) <- t.o_attempt.(s);
      timer.(d) <- t.o_timer.(s)
    end
  done;
  t.o_key <- key;
  t.o_t0 <- t0;
  t.o_k <- k;
  t.o_kind <- kind;
  t.o_lba <- lba;
  t.o_len <- len;
  t.o_attempt <- attempt;
  t.o_timer <- timer

(* A free slot for request [id]. *)
let claim t id =
  let cap = Array.length t.o_key in
  if cap = 0 || t.o_key.(id land (cap - 1)) >= 0 then grow_outstanding t id;
  t.inflight <- t.inflight + 1;
  id land (Array.length t.o_key - 1)

let release t s =
  t.o_key.(s) <- -1;
  t.o_k.(s) <- no_k;
  t.o_lba.(s) <- 0L;
  t.o_timer.(s) <- Sim.no_event;
  t.inflight <- t.inflight - 1

let latency_since t t0 = Time.diff (Sim.now t.sim) (Time.ns t0)

let complete t req_id status =
  let s = find t (Int64.to_int req_id) in
  if s >= 0 then begin
    let k = t.o_k.(s) and t0 = t.o_t0.(s) and kind = t.o_kind.(s) and timer = t.o_timer.(s) in
    release t s;
    Sim.cancel t.sim timer;
    (if t.tel_on && kind <> Barrier then
       match t.handle with
       | Some tenant ->
         Telemetry.span t.tel ~now:(Sim.now t.sim) ~lane:t.lane ~tenant ~req_id
           Telemetry.Stage.Client_complete
       | None -> ());
    k status ~latency:(latency_since t t0)
  end
  (* else an unknown id: either a duplicate completion or a response
     that arrived after its deadline expired and the request was
     re-issued under a new id (at-least-once semantics) — drop it. *)

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

(* ---- the core ---- *)

(* Cold path: double the ring (from capacity 1), unwrapping it to start
   at 0. *)
let grow_core t =
  let cap = Array.length t.c_msg in
  let ncap = if cap = 0 then 1 else 2 * cap in
  let msg = Array.make ncap blank_msg and tx = Array.make ncap false in
  for j = 0 to t.c_len - 1 do
    msg.(j) <- t.c_msg.((t.c_head + j) land (cap - 1));
    tx.(j) <- t.c_tx.((t.c_head + j) land (cap - 1))
  done;
  t.c_msg <- msg;
  t.c_tx <- tx;
  t.c_head <- 0

(* Queue [msg] on the core; an idle core starts it at once. *)
let core_push t msg ~tx =
  if t.c_len = Array.length t.c_msg then grow_core t;
  let i = (t.c_head + t.c_len) land (Array.length t.c_msg - 1) in
  t.c_msg.(i) <- msg;
  t.c_tx.(i) <- tx;
  t.c_len <- t.c_len + 1;
  if t.c_len = 1 then Sim.post_after t.sim t.stack.Stack_model.per_msg_cpu t.h_core 0

(* The head's CPU is spent: the next message starts before this one
   moves on (sent to the server, or dispatched to the application). *)
let on_core_done t _ =
  let i = t.c_head in
  let msg = t.c_msg.(i) and tx = t.c_tx.(i) in
  t.c_msg.(i) <- blank_msg;
  t.c_head <- (i + 1) land (Array.length t.c_msg - 1);
  t.c_len <- t.c_len - 1;
  if t.c_len > 0 then Sim.post_after t.sim t.stack.Stack_model.per_msg_cpu t.h_core 0;
  if tx then Tcp_conn.send_to_server t.conn ~size:(Codec.encoded_size msg) msg
  else dispatch t msg

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
      stack;
      client_host;
      c_msg = [||];
      c_tx = [||];
      c_head = 0;
      c_len = 0;
      h_core = -1;
      next_req = 1L;
      o_key = [||];
      o_t0 = [||];
      o_k = [||];
      o_kind = [||];
      o_lba = [||];
      o_len = [||];
      o_attempt = [||];
      o_timer = [||];
      inflight = 0;
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
  t.h_core <- Sim.handler sim (on_core_done t);
  accept conn;
  (* Receive path: the client thread spends per-message CPU before the
     application sees the completion. *)
  Tcp_conn.set_client_handler conn (fun msg ~size:_ -> core_push t msg ~tx:false);
  t

(* Transmit path: CPU first, then the wire. *)
let send t msg = core_push t msg ~tx:true

let register t ~tenant ?(slo = Message.best_effort_slo) k =
  if t.register_k <> None then failwith "Client_lib.register: registration already in flight";
  t.register_k <- Some k;
  send t (Message.Register { tenant; slo })

let handle t = t.handle

let request ~handle ~req_id ~kind ~lba ~len =
  match kind with
  | Read -> Message.Read_req { handle; req_id; lba; len }
  | Write -> Message.Write_req { handle; req_id; lba; len }
  | Barrier -> Message.Barrier_req { handle; req_id }

(* Issue one attempt of an operation.  With a retry policy armed, a
   per-attempt deadline timer expires into [on_timeout]; the timer is
   cancelled (closure dropped immediately, see Sim.cancel) when the
   response lands first.  Every attempt uses a fresh request id, so a
   late response to an abandoned attempt finds no outstanding entry and
   is dropped — re-issue is at-least-once, completion exactly-once.
   [prev] is the req_id of the attempt this one retries: the causal
   follows-from link chains the attempts into one span tree. *)
let rec issue ?prev t ~handle ~t0 ~attempt ~kind ~lba ~len k =
  let req_id = t.next_req in
  t.next_req <- Int64.add req_id 1L;
  let timer =
    match t.retry with
    | None -> Sim.no_event
    | Some policy -> Sim.after t.sim policy.Retry.timeout (fun () -> on_timeout t req_id)
  in
  let id = Int64.to_int req_id in
  let s = claim t id in
  t.o_key.(s) <- id;
  t.o_t0.(s) <- t0;
  t.o_k.(s) <- k;
  t.o_kind.(s) <- kind;
  t.o_lba.(s) <- lba;
  t.o_len.(s) <- len;
  t.o_attempt.(s) <- attempt;
  t.o_timer.(s) <- timer;
  if t.tel_on && kind <> Barrier then begin
    Telemetry.span t.tel ~now:(Sim.now t.sim) ~lane:t.lane ~tenant:handle ~req_id
      Telemetry.Stage.Client_submit;
    match prev with
    | Some prev_id ->
      Telemetry.link t.tel ~now:(Sim.now t.sim) ~kind:Telemetry.Follows_from
        ~src_tenant:handle ~src_req:prev_id ~dst_tenant:handle ~dst_req:req_id
    | None -> ()
  end;
  send t (request ~handle ~req_id ~kind ~lba ~len)

and on_timeout t req_id =
  let s = find t (Int64.to_int req_id) in
  (* Not found: the response won the race against the deadline. *)
  if s >= 0 then begin
    let k = t.o_k.(s) and t0 = t.o_t0.(s) and attempt = t.o_attempt.(s) in
    let kind = t.o_kind.(s) and lba = t.o_lba.(s) and len = t.o_len.(s) in
    release t s;
    t.timeouts <- t.timeouts + 1;
    if t.tel_on then Telemetry.incr t.c_timeouts;
    let policy = Option.get t.retry in
    let give_up () = k Message.Timed_out ~latency:(latency_since t t0) in
    if attempt >= policy.Retry.max_retries then give_up ()
    else begin
      t.retries <- t.retries + 1;
      if t.tel_on then Telemetry.incr t.c_retries;
      let delay = Retry.delay_for policy ~attempt:(attempt + 1) ~prng:t.retry_prng in
      ignore
        (Sim.after t.sim delay (fun () ->
             match t.handle with
             | Some h ->
               issue ~prev:req_id t ~handle:h ~t0 ~attempt:(attempt + 1) ~kind ~lba ~len k
             | None -> give_up ()))
    end
  end

let start t ~kind ~lba ~len k =
  match t.handle with
  | None -> failwith "Client_lib: not registered"
  | Some handle ->
    issue t ~handle ~t0:(Int64.to_int (Sim.now t.sim)) ~attempt:0 ~kind ~lba ~len k

let read t ~lba ~len k = start t ~kind:Read ~lba ~len k
let write t ~lba ~len k = start t ~kind:Write ~lba ~len k
let barrier t k = start t ~kind:Barrier ~lba:0L ~len:0 k

let unregister t k =
  match t.handle with
  | None -> failwith "Client_lib: not registered"
  | Some handle ->
    t.unregister_k <- Some k;
    send t (Message.Unregister { handle })

let next_req_id t = t.next_req
let inflight t = t.inflight
let retries t = t.retries
let timeouts t = t.timeouts
