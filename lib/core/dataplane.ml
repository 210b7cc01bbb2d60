open Reflex_engine
open Reflex_flash
open Reflex_qos
open Reflex_telemetry
module Stage = Reflex_obs.Stage

(* The request path allocates nothing per request or per cycle beyond
   the boxed [Time.t] service handed to the core [Resource] at each
   step and the float the cost model returns.  A request lives in an
   int slot of the request arena below (structure of arrays, grown on
   demand, freelist-recycled) from [receive] to [respond]: the receive
   ring, the tenant queues, the SQ-full retry queue and the NVMe cookie
   are all that slot.  The cycle's steps are closures built once at
   creation; what one step hands the next ([batch], [submissions]) sits
   in fields, which is safe because one cycle runs at a time
   ([running]).  CPU charges are computed in int nanoseconds: the
   products are exact, so they equal what [Time.scale] would round
   them to. *)

type 'a t = {
  sim : Sim.t;
  thread_id : int;
  core : Resource.t;
  qp : Queue_pair.t;
  device : Nvme_model.t;
  cost_model : Cost_model.t;
  scheduler : int Scheduler.t; (* queues request slots *)
  costs : Costs.t;
  respond : kind:Io_op.kind -> 'a -> unit;
  reroute : tenant_id:int -> kind:Io_op.kind -> bytes:int -> 'a -> unit;
  (* the request arena, indexed by slot *)
  mutable r_payload : 'a array;
  mutable r_kind : Io_op.kind array;
  mutable r_bytes : int array;
  mutable r_tenant : int array;
  mutable r_cost : float array; (* token cost fixed at parse time *)
  mutable r_free : int array;
  mutable r_free_len : int;
  mutable r_filler : 'a option; (* the first payload seen: blanks freed slots *)
  rx_ring : Int_fifo.t;
  deferred : Int_fifo.t; (* SQ-full retries *)
  mutable outstanding : int; (* submitted to the SQ, not yet reaped *)
  mutable conns : int;
  mutable running : bool; (* a cycle is executing or queued on the core *)
  mutable idle_timer : Sim.event_id option;
  mutable completed : int;
  spent : Cell.t; (* tokens spent, flat so a store does not box *)
  mutable rounds : int;
  (* cycle state: step one's parse batch, then step two's reap batch *)
  mutable batch : int;
  mutable submissions : int;
  (* per-step CPU costs, ns *)
  per_msg_ns : int;
  sched_base_ns : int;
  sched_per_tenant_ns : int;
  submit_per_req_ns : int;
  complete_per_req_ns : int;
  (* the cycle's steps, built once in [create] *)
  mutable parse_step : unit -> unit;
  mutable submit_step : unit -> unit;
  mutable reap_step : unit -> unit;
  mutable idle_wake : unit -> unit;
  mutable grant : int -> unit;
  mutable reap_one : cookie:int -> kind:Io_op.kind -> latency:Time.t -> unit;
  (* Observability.  [stages] is the server's one stage sink: every
     stage of a request is stamped through it once, behind one mask test
     ([Stage.armed]) that keeps the unarmed cycle allocation-free.
     [trace_id] projects the opaque payload to the request id of the
     stamp. *)
  stages : Stage.sink;
  trace_id : 'a -> int64;
  (* Always-on flight recorder, cached off the telemetry instance at
     creation; one queue-depth record per cycle frames every forensic
     dump with what the rx ring and SQ looked like. *)
  fl : Reflex_obs.Flight.t;
  fl_on : bool;
}

let stamp t ~tenant payload stage =
  Stage.stamp t.stages ~tenant ~req:(t.trace_id payload) ~now:(Sim.now t.sim) stage

let grow a ncap fill =
  let na = Array.make ncap fill in
  Array.blit a 0 na 0 (Array.length a);
  na

(* Cold: more requests inside the thread than ever before.  [payload]
   fills the fresh slots. *)
let grow_reqs t payload =
  let cap = Array.length t.r_kind in
  let ncap = if cap = 0 then 64 else 2 * cap in
  t.r_payload <- grow t.r_payload ncap payload;
  t.r_kind <- grow t.r_kind ncap Io_op.Read;
  t.r_bytes <- grow t.r_bytes ncap 0;
  t.r_tenant <- grow t.r_tenant ncap 0;
  t.r_cost <- grow t.r_cost ncap 0.0;
  t.r_free <- grow t.r_free ncap 0;
  if t.r_filler = None then t.r_filler <- Some payload;
  for slot = ncap - 1 downto cap do
    t.r_free.(t.r_free_len) <- slot;
    t.r_free_len <- t.r_free_len + 1
  done

let alloc_req t payload =
  if t.r_free_len = 0 then grow_reqs t payload;
  t.r_free_len <- t.r_free_len - 1;
  let r = t.r_free.(t.r_free_len) in
  t.r_payload.(r) <- payload;
  r

(* A freed slot is blanked with the filler payload, so the arena pins no
   completed request. *)
let free_req t r =
  (match t.r_filler with Some f -> t.r_payload.(r) <- f | None -> ());
  t.r_free.(t.r_free_len) <- r;
  t.r_free_len <- t.r_free_len + 1

let add_tenant t ~id ~slo ~token_rate =
  Scheduler.add_tenant t.scheduler (Tenant.create ~id ~slo ~token_rate)

let remove_tenant t ~id = Scheduler.remove_tenant t.scheduler id

let set_be_rate t rate =
  Scheduler.iter_be t.scheduler (fun tenant -> Tenant.set_token_rate tenant rate)

let set_lc_rates t rate_of =
  Scheduler.iter_lc t.scheduler (fun tenant ->
      match rate_of (Tenant.id tenant) with
      | Some rate -> Tenant.set_token_rate tenant rate
      | None -> ())

let tenant_count t = Scheduler.tenant_count t.scheduler

(* [Time.scale (ns) (Costs.conn_factor ...)]: below the connection
   threshold the factor is exactly 1.0, and scaling by it is the
   identity. *)
let charge t ns =
  if t.conns <= t.costs.conn_penalty_threshold then Time.ns ns
  else
    Time.ns
      (int_of_float (Float.round (float_of_int ns *. Costs.conn_factor t.costs ~conns:t.conns)))

(* The thread wakes and runs one two-step cycle whenever there is work:
   receive-ring entries, completions, or schedulable tenant backlog. *)
let rec kick t =
  if not t.running then begin
    (match t.idle_timer with
    | Some ev ->
      Sim.cancel t.sim ev;
      t.idle_timer <- None
    | None -> ());
    t.running <- true;
    run_cycle t
  end

(* Step one (Figure 2, steps 1-4): drain a batch from the receive ring,
   parse each message into its tenant's software queue, run a QoS
   scheduling round, and submit admitted requests to the NVMe SQ.  The
   CPU for receive + parse + scheduling is charged before submissions
   take effect.  The batch is sized up front (the ring only grows until
   this thread drains it) and popped inside [parse_step]. *)
and run_cycle t =
  if t.fl_on then
    Reflex_obs.Flight.record t.fl ~now:(Sim.now t.sim) ~kind:Reflex_obs.Flight.Kind.Queue_depth
      ~a:t.thread_id ~b:t.outstanding
      ~v:(float_of_int (Int_fifo.length t.rx_ring));
  let queued = Int_fifo.length t.rx_ring in
  let n = if t.costs.batch_max < queued then t.costs.batch_max else queued in
  t.batch <- n;
  let step1_cpu =
    (t.per_msg_ns * n)
    + (t.sched_base_ns + (t.sched_per_tenant_ns * Scheduler.tenant_count t.scheduler))
  in
  Resource.submit t.core ~service:(charge t step1_cpu) t.parse_step

(* Step two (Figure 2, steps 5-8): poll the completion queue, deliver
   completion events, transmit responses.  The batch is sized now (CPU
   is charged for what this cycle will reap); the CQ ring is FIFO, so
   the first [batch] entries when [reap_step] drains it are exactly the
   ones pending here. *)
and run_step2 t =
  let pending = Queue_pair.completions_pending t.qp in
  let n = if pending < t.costs.batch_max then pending else t.costs.batch_max in
  t.batch <- n;
  Resource.submit t.core ~service:(charge t (t.complete_per_req_ns * n)) t.reap_step

and finish_cycle t =
  t.running <- false;
  let have_rx = Int_fifo.length t.rx_ring > 0 in
  let have_cq = Queue_pair.completions_pending t.qp > 0 in
  let have_deferred = Int_fifo.length t.deferred > 0 in
  if have_rx || have_cq || have_deferred then kick t
  else if Scheduler.has_backlog t.scheduler then
    (* Only rate-limited backlog remains: re-enter the scheduler once
       tokens have accrued.  The option is built only on this going-idle
       transition. *)
    match t.idle_timer with
    | Some _ -> ()
    | None -> t.idle_timer <- Some (Sim.after t.sim t.costs.idle_sched_period t.idle_wake)

(* Submit request [r] to the NVMe SQ; false when the SQ is full. *)
let try_submit t r =
  match Queue_pair.submit t.qp ~kind:t.r_kind.(r) ~bytes:t.r_bytes.(r) ~cookie:r with
  | `Ok ->
    t.outstanding <- t.outstanding + 1;
    t.spent.v <- t.spent.v +. t.r_cost.(r);
    t.submissions <- t.submissions + 1;
    if Stage.armed t.stages Stage.Nvme_submit then
      stamp t ~tenant:t.r_tenant.(r) t.r_payload.(r) Stage.Nvme_submit;
    true
  | `Full -> false

(* The scheduler released request [r]: its tokens are granted and
   spent, whether or not the SQ has room right now. *)
let grant t r =
  if Stage.armed t.stages Stage.Granted then
    stamp t ~tenant:t.r_tenant.(r) t.r_payload.(r) Stage.Granted;
  if not (try_submit t r) then Int_fifo.push t.deferred r

(* [parse_step]: requests enter their tenant's queue with the token cost
   fixed by the device's current read/write mix.  A request whose tenant
   unregistered between arrival and parsing goes to [reroute], never
   dropped.  Submissions deferred on a full SQ go first — their tokens
   are already spent; the first refusal stops them (the SQ is full
   again).  Then one scheduling round. *)
let parse_and_schedule t =
  for _ = 1 to t.batch do
    let r = Int_fifo.pop t.rx_ring in
    let tenant_id = t.r_tenant.(r) in
    if Scheduler.mem_tenant t.scheduler tenant_id then begin
      let cost =
        Cost_model.request_cost t.cost_model ~kind:t.r_kind.(r) ~bytes:t.r_bytes.(r)
          ~read_only:(Nvme_model.read_only_mode t.device)
      in
      t.r_cost.(r) <- cost;
      Scheduler.enqueue t.scheduler ~tenant_id ~cost r;
      if Stage.armed t.stages Stage.Sched_enqueue then
        stamp t ~tenant:tenant_id t.r_payload.(r) Stage.Sched_enqueue
    end
    else begin
      let payload = t.r_payload.(r) and kind = t.r_kind.(r) and bytes = t.r_bytes.(r) in
      free_req t r;
      t.reroute ~tenant_id ~kind ~bytes payload
    end
  done;
  t.submissions <- 0;
  while Int_fifo.length t.deferred > 0 && try_submit t (Int_fifo.peek t.deferred) do
    ignore (Int_fifo.pop t.deferred)
  done;
  t.rounds <- t.rounds + 1;
  ignore (Scheduler.schedule t.scheduler ~now:(Sim.now t.sim) ~submit:t.grant);
  Resource.submit t.core ~service:(charge t (t.submit_per_req_ns * t.submissions)) t.submit_step

(* [reap_one]: a completion off the CQ; the slot is retired before the
   response goes out (the server may re-enter [receive]). *)
let reap_one t ~cookie:r ~kind ~latency:_ =
  t.outstanding <- t.outstanding - 1;
  t.completed <- t.completed + 1;
  let payload = t.r_payload.(r) in
  if Stage.armed t.stages Stage.Nvme_complete then
    stamp t ~tenant:t.r_tenant.(r) payload Stage.Nvme_complete;
  free_req t r;
  t.respond ~kind payload

let reap t =
  let _ : int = Queue_pair.drain t.qp ~max:t.batch ~f:t.reap_one in
  finish_cycle t

let idle_wake t =
  t.idle_timer <- None;
  kick t

let create sim ~thread_id ~qp ~device ~cost_model ~global ?(costs = Costs.default)
    ?neg_limit ?donate_fraction ?notify_control_plane
    ?(reroute = fun ~tenant_id ~kind:_ ~bytes:_ _ -> ignore tenant_id; raise Not_found)
    ?(telemetry = Telemetry.disabled) ~stages ?(trace_id = fun _ -> 0L) ~respond () =
  let scheduler =
    Scheduler.create ?neg_limit ?donate_fraction ~global ~thread_id ?notify_control_plane
      ~telemetry ()
  in
  let nop () = () in
  let t =
    {
      sim;
      thread_id;
      core = Resource.create sim;
      qp;
      device;
      cost_model;
      scheduler;
      costs;
      respond;
      reroute;
      r_payload = [||];
      r_kind = [||];
      r_bytes = [||];
      r_tenant = [||];
      r_cost = [||];
      r_free = [||];
      r_free_len = 0;
      r_filler = None;
      rx_ring = Int_fifo.create ();
      deferred = Int_fifo.create ();
      outstanding = 0;
      conns = 0;
      running = false;
      idle_timer = None;
      completed = 0;
      spent = { Cell.v = 0.0 };
      rounds = 0;
      batch = 0;
      submissions = 0;
      per_msg_ns = Int64.to_int (Time.add costs.rx_per_msg costs.parse_per_msg);
      sched_base_ns = Int64.to_int costs.sched_base;
      sched_per_tenant_ns = Int64.to_int costs.sched_per_tenant;
      submit_per_req_ns = Int64.to_int costs.submit_per_req;
      complete_per_req_ns = Int64.to_int costs.complete_per_req;
      parse_step = nop;
      submit_step = nop;
      reap_step = nop;
      idle_wake = nop;
      grant = ignore;
      reap_one = (fun ~cookie:_ ~kind:_ ~latency:_ -> ());
      stages;
      trace_id;
      fl = Telemetry.flight telemetry;
      fl_on = Reflex_obs.Flight.enabled (Telemetry.flight telemetry);
    }
  in
  t.parse_step <- (fun () -> parse_and_schedule t);
  t.submit_step <- (fun () -> run_step2 t);
  t.reap_step <- (fun () -> reap t);
  t.idle_wake <- (fun () -> idle_wake t);
  t.grant <- grant t;
  t.reap_one <- reap_one t;
  if Telemetry.enabled telemetry then begin
    let p = Printf.sprintf "core/thread%d/" thread_id in
    Telemetry.register_gauge telemetry (p ^ "rx_ring") (fun () ->
        float_of_int (Int_fifo.length t.rx_ring));
    Telemetry.register_gauge telemetry (p ^ "outstanding") (fun () ->
        float_of_int t.outstanding);
    Telemetry.register_gauge telemetry (p ^ "deferred") (fun () ->
        float_of_int (Int_fifo.length t.deferred));
    Telemetry.register_gauge telemetry (p ^ "rounds") (fun () -> float_of_int t.rounds);
    Telemetry.register_gauge telemetry (p ^ "completed") (fun () -> float_of_int t.completed);
    Telemetry.register_gauge telemetry (p ^ "tokens_spent") (fun () -> t.spent.v);
    Telemetry.register_gauge telemetry (p ^ "backlog") (fun () -> Scheduler.backlog t.scheduler);
    Telemetry.register_gauge telemetry (p ^ "util") (fun () -> Resource.utilization t.core)
  end;
  (* A completion landing while the thread is idle is noticed by its next
     poll iteration. *)
  Queue_pair.set_completion_hook qp (fun () -> kick t);
  t

let receive t ~tenant_id ~kind ~bytes payload =
  if not (Scheduler.mem_tenant t.scheduler tenant_id) then raise Not_found;
  if Stage.armed t.stages Stage.Server_rx then stamp t ~tenant:tenant_id payload Stage.Server_rx;
  let r = alloc_req t payload in
  t.r_kind.(r) <- kind;
  t.r_bytes.(r) <- bytes;
  t.r_tenant.(r) <- tenant_id;
  Int_fifo.push t.rx_ring r;
  kick t
(* Fault injection: occupy the thread's core with an uninterruptible
   burst of "other work" (interrupt storm, page-cache shootdown, noisy
   co-tenant on the shared core).  High priority so it runs ahead of
   queued cycle steps; the dataplane's own work queues behind it exactly
   as it would behind a hogged physical core. *)
let inject_stall t ~duration =
  if Time.(duration <= Time.zero) then invalid_arg "Dataplane.inject_stall: duration";
  Resource.submit t.core ~priority:Resource.High ~service:duration
    (fun () -> ())

let add_conns t n = t.conns <- t.conns + n
let utilization t = Resource.utilization t.core
let tokens_spent t = t.spent.v

(* Cumulative weighted tokens this tenant's submitted requests cost — the
   per-tenant half of the load-knee signal (lib/monitor takes windowed
   deltas to place each tenant on the latency-vs-weighted-IOPS curve). *)
let tenant_tokens_submitted t ~id =
  match Scheduler.find_tenant t.scheduler id with
  | Some tenant -> Some tenant.Tenant.acct.submitted_cost
  | None -> None

(* Requests inside this thread, wherever they sit: unparsed receive-ring
   entries, software-queued tenant requests, and in-flight NVMe
   commands.  Probe-path metric for the rack-level load balancers. *)
let queue_depth t =
  Int_fifo.length t.rx_ring + Scheduler.queue_depth t.scheduler + t.outstanding
