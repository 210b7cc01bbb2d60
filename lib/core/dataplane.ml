open Reflex_engine
open Reflex_flash
open Reflex_qos
open Reflex_telemetry
module Stage = Reflex_obs.Stage

type 'a done_req = { payload : 'a; kind : Io_op.kind; nvme_latency : Time.t }

type 'a pending = { p_payload : 'a; p_kind : Io_op.kind; p_bytes : int; p_tenant : int }

type 'a t = {
  sim : Sim.t;
  thread_id : int;
  core : Resource.t;
  qp : Queue_pair.t;
  device : Nvme_model.t;
  cost_model : Cost_model.t;
  scheduler : 'a pending Scheduler.t;
  costs : Costs.t;
  respond : 'a done_req -> unit;
  reroute : tenant_id:int -> kind:Io_op.kind -> bytes:int -> 'a -> unit;
  rx_ring : 'a pending Queue.t;
  outstanding : (int, 'a pending) Hashtbl.t;
  deferred : 'a pending Scheduler.submission Queue.t; (* SQ-full retries *)
  mutable next_cookie : int;
  mutable conns : int;
  mutable running : bool; (* a cycle is executing or queued on the core *)
  mutable idle_timer : Sim.event_id option;
  mutable completed : int;
  mutable tokens_spent : float;
  mutable rounds : int;
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

let has_tenant t ~id = Scheduler.find_tenant t.scheduler id <> None
let tenant_count t = Scheduler.tenant_count t.scheduler

let charge t base = Time.scale base (Costs.conn_factor t.costs ~conns:t.conns)

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
   take effect. *)
and run_cycle t =
  let costs = t.costs in
  if t.fl_on then
    Reflex_obs.Flight.record t.fl ~now:(Sim.now t.sim) ~kind:Reflex_obs.Flight.Kind.Queue_depth
      ~a:t.thread_id
      ~b:(Hashtbl.length t.outstanding)
      ~v:(float_of_int (Queue.length t.rx_ring));
  (* Size the batch up front (the ring only grows until we drain it, and
     this thread is the sole consumer), charge the CPU, then pop the same
     [n] messages straight off the ring inside the completion — no
     intermediate cons-and-reverse batch list on the per-cycle path. *)
  let n = min costs.batch_max (Queue.length t.rx_ring) in
  let per_msg = Time.add costs.rx_per_msg costs.parse_per_msg in
  let sched_cpu =
    Time.add costs.sched_base
      (Time.scale costs.sched_per_tenant (float_of_int (Scheduler.tenant_count t.scheduler)))
  in
  let step1_cpu = Time.add (Time.scale per_msg (float_of_int n)) sched_cpu in
  Resource.submit t.core ~service:(charge t step1_cpu) (fun ~started:_ ~finished:_ ->
      (* Requests enter their tenant's queue with the token cost fixed by
         the device's current read/write mix.  A tenant rebalanced away
         between arrival and parsing gets its requests rerouted, never
         dropped (paper §3.1). *)
      for _ = 1 to n do
        let p = Queue.pop t.rx_ring in
        match Scheduler.find_tenant t.scheduler p.p_tenant with
        | Some _ ->
          let cost =
            Cost_model.request_cost t.cost_model ~kind:p.p_kind ~bytes:p.p_bytes
              ~read_only:(Nvme_model.read_only_mode t.device)
          in
          Scheduler.enqueue t.scheduler ~tenant_id:p.p_tenant ~cost p;
          if Stage.armed t.stages Stage.Sched_enqueue then
            stamp t ~tenant:p.p_tenant p.p_payload Stage.Sched_enqueue
        | None -> t.reroute ~tenant_id:p.p_tenant ~kind:p.p_kind ~bytes:p.p_bytes p.p_payload
      done;
      let submissions = ref 0 in
      let try_submit (s : 'a pending Scheduler.submission) =
        let pend = s.Scheduler.payload in
        let cookie = t.next_cookie in
        t.next_cookie <- t.next_cookie + 1;
        match Queue_pair.submit t.qp ~kind:pend.p_kind ~bytes:pend.p_bytes ~cookie with
        | `Ok ->
          Hashtbl.replace t.outstanding cookie pend;
          t.tokens_spent <- t.tokens_spent +. s.Scheduler.cost;
          incr submissions;
          if Stage.armed t.stages Stage.Nvme_submit then
            stamp t ~tenant:pend.p_tenant pend.p_payload Stage.Nvme_submit;
          true
        | `Full -> false
      in
      let submit_to_qp s =
        (* The scheduler released this request: its tokens are granted
           and spent, whether or not the SQ has room right now. *)
        if Stage.armed t.stages Stage.Granted then begin
          let pend = s.Scheduler.payload in
          stamp t ~tenant:pend.p_tenant pend.p_payload Stage.Granted
        end;
        if not (try_submit s) then Queue.add s t.deferred
      in
      (* Submissions deferred on a full SQ go first — their tokens are
         already spent.  Stop at the first refusal: the SQ is full again. *)
      let rec retry_deferred () =
        match Queue.peek_opt t.deferred with
        | Some s when try_submit s ->
          ignore (Queue.pop t.deferred);
          retry_deferred ()
        | Some _ | None -> ()
      in
      retry_deferred ();
      t.rounds <- t.rounds + 1;
      ignore (Scheduler.schedule t.scheduler ~now:(Sim.now t.sim) ~submit:submit_to_qp);
      let submit_cpu = Time.scale costs.submit_per_req (float_of_int !submissions) in
      Resource.submit t.core ~service:(charge t submit_cpu) (fun ~started:_ ~finished:_ ->
          run_step2 t))

(* Step two (Figure 2, steps 5-8): poll the completion queue, deliver
   completion events, transmit responses. *)
and run_step2 t =
  let costs = t.costs in
  (* Size the batch now (CPU is charged for what this cycle will reap);
     the reap itself happens in the callback via [Queue_pair.drain] —
     the CQ ring is FIFO, so the first [n] entries then are exactly the
     ones pending here, and no completion list is ever built. *)
  let pending = Queue_pair.completions_pending t.qp in
  let n = if pending < costs.batch_max then pending else costs.batch_max in
  let step2_cpu = Time.scale costs.complete_per_req (float_of_int n) in
  Resource.submit t.core ~service:(charge t step2_cpu) (fun ~started:_ ~finished:_ ->
      let _ : int =
        Queue_pair.drain t.qp ~max:n ~f:(fun ~cookie ~kind ~latency ->
            match Hashtbl.find_opt t.outstanding cookie with
            | Some pend ->
              Hashtbl.remove t.outstanding cookie;
              t.completed <- t.completed + 1;
              if Stage.armed t.stages Stage.Nvme_complete then
                stamp t ~tenant:pend.p_tenant pend.p_payload Stage.Nvme_complete;
              t.respond { payload = pend.p_payload; kind; nvme_latency = latency }
            | None -> ())
      in
      finish_cycle t)

and finish_cycle t =
  t.running <- false;
  let have_rx = not (Queue.is_empty t.rx_ring) in
  let have_cq = Queue_pair.completions_pending t.qp > 0 in
  let have_deferred = not (Queue.is_empty t.deferred) in
  if have_rx || have_cq || have_deferred then kick t
  else if Scheduler.has_backlog t.scheduler then
    (* Only rate-limited backlog remains: re-enter the scheduler once
       tokens have accrued. *)
    match t.idle_timer with
    | Some _ -> ()
    | None ->
      t.idle_timer <-
        Some
          (Sim.after t.sim t.costs.idle_sched_period (fun () ->
               t.idle_timer <- None;
               kick t))

let create sim ~thread_id ~qp ~device ~cost_model ~global ?(costs = Costs.default)
    ?neg_limit ?donate_fraction ?notify_control_plane
    ?(reroute = fun ~tenant_id ~kind:_ ~bytes:_ _ -> ignore tenant_id; raise Not_found)
    ?(telemetry = Telemetry.disabled) ~stages ?(trace_id = fun _ -> 0L) ~respond () =
  let scheduler =
    Scheduler.create ?neg_limit ?donate_fraction ~global ~thread_id ?notify_control_plane
      ~telemetry ()
  in
  let t =
    {
      sim;
      thread_id;
      core = Resource.create sim ~servers:1;
      qp;
      device;
      cost_model;
      scheduler;
      costs;
      respond;
      reroute;
      rx_ring = Queue.create ();
      outstanding = Hashtbl.create 1024;
      deferred = Queue.create ();
      next_cookie = 0;
      conns = 0;
      running = false;
      idle_timer = None;
      completed = 0;
      tokens_spent = 0.0;
      rounds = 0;
      stages;
      trace_id;
      fl = Telemetry.flight telemetry;
      fl_on = Reflex_obs.Flight.enabled (Telemetry.flight telemetry);
    }
  in
  if Telemetry.enabled telemetry then begin
    let p = Printf.sprintf "core/thread%d/" thread_id in
    Telemetry.register_gauge telemetry (p ^ "rx_ring") (fun () ->
        float_of_int (Queue.length t.rx_ring));
    Telemetry.register_gauge telemetry (p ^ "outstanding") (fun () ->
        float_of_int (Hashtbl.length t.outstanding));
    Telemetry.register_gauge telemetry (p ^ "deferred") (fun () ->
        float_of_int (Queue.length t.deferred));
    Telemetry.register_gauge telemetry (p ^ "rounds") (fun () -> float_of_int t.rounds);
    Telemetry.register_gauge telemetry (p ^ "completed") (fun () -> float_of_int t.completed);
    Telemetry.register_gauge telemetry (p ^ "tokens_spent") (fun () -> t.tokens_spent);
    Telemetry.register_gauge telemetry (p ^ "backlog") (fun () -> Scheduler.backlog t.scheduler);
    Telemetry.register_gauge telemetry (p ^ "util") (fun () -> Resource.utilization t.core)
  end;
  (* A completion landing while the thread is idle is noticed by its next
     poll iteration. *)
  Queue_pair.set_completion_hook qp (fun () -> kick t);
  t

let detach_tenant t ~id =
  match Scheduler.find_tenant t.scheduler id with
  | None -> None
  | Some tenant ->
    let rec drain acc =
      match Tenant.dequeue tenant with
      | Some (_cost, pend) -> drain ((pend.p_kind, pend.p_bytes, pend.p_payload) :: acc)
      | None -> List.rev acc
    in
    let backlog = drain [] in
    let slo = Tenant.slo tenant and rate = tenant.Tenant.acct.token_rate in
    Scheduler.remove_tenant t.scheduler id;
    Some (slo, rate, backlog)

let receive t ~tenant_id ~kind ~bytes payload =
  if not (has_tenant t ~id:tenant_id) then raise Not_found;
  if Stage.armed t.stages Stage.Server_rx then stamp t ~tenant:tenant_id payload Stage.Server_rx;
  Queue.add { p_payload = payload; p_kind = kind; p_bytes = bytes; p_tenant = tenant_id }
    t.rx_ring;
  kick t

let attach_tenant t ~id ~slo ~token_rate ~backlog =
  add_tenant t ~id ~slo ~token_rate;
  List.iter (fun (kind, bytes, payload) -> receive t ~tenant_id:id ~kind ~bytes payload) backlog

(* Fault injection: occupy the thread's core with an uninterruptible
   burst of "other work" (interrupt storm, page-cache shootdown, noisy
   co-tenant on the shared core).  High priority so it runs ahead of
   queued cycle steps; the dataplane's own work queues behind it exactly
   as it would behind a hogged physical core. *)
let inject_stall t ~duration =
  if Time.(duration <= Time.zero) then invalid_arg "Dataplane.inject_stall: duration";
  Resource.submit t.core ~priority:Resource.High ~service:duration
    (fun ~started:_ ~finished:_ -> ())

let add_conns t n = t.conns <- t.conns + n
let utilization t = Resource.utilization t.core
let tokens_spent t = t.tokens_spent

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
  Queue.length t.rx_ring + Scheduler.queue_depth t.scheduler + Hashtbl.length t.outstanding
