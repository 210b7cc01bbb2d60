type priority = High | Low

type job = { service : Time.t; callback : unit -> unit }

(* One server, so the job in service lives in [service_ns] and
   [callback], and its completion is a posted event on the handler
   [done_h], registered once at creation: a job that starts on an idle
   resource allocates nothing here.  Only a job that has to wait is
   boxed into a [job] record on one of the two queues.  Busy time is kept
   in int nanoseconds, so the per-job sum is not boxed either. *)
type t = {
  sim : Sim.t;
  created_at : Time.t;
  high : job Queue.t;
  low : job Queue.t;
  mutable busy : bool;
  mutable service_ns : int;
  mutable callback : unit -> unit;
  mutable busy_ns : int;
  mutable done_h : int;
}

let idle () = ()

let start t service callback =
  t.busy <- true;
  t.service_ns <- Int64.to_int service;
  t.callback <- callback;
  Sim.post_after t.sim service t.done_h 0

let dispatch t =
  match Queue.take_opt t.high with
  | Some job -> start t job.service job.callback
  | None -> (
    match Queue.take_opt t.low with
    | Some job -> start t job.service job.callback
    | None -> ())

let finish t =
  let callback = t.callback in
  t.callback <- idle;
  t.busy <- false;
  t.busy_ns <- t.busy_ns + t.service_ns;
  dispatch t;
  callback ()

let create sim =
  let t =
    {
      sim;
      created_at = Sim.now sim;
      high = Queue.create ();
      low = Queue.create ();
      busy = false;
      service_ns = 0;
      callback = idle;
      busy_ns = 0;
      done_h = -1;
    }
  in
  t.done_h <- Sim.handler sim (fun _ -> finish t);
  t

let submit t ?(priority = High) ~service callback =
  if Time.(service < Time.zero) then invalid_arg "Resource.submit: negative service";
  if not t.busy then start t service callback
  else
    let job = { service; callback } in
    match priority with
    | High -> Queue.add job t.high
    | Low -> Queue.add job t.low

let utilization t =
  let elapsed = Time.diff (Sim.now t.sim) t.created_at in
  if Time.(elapsed <= Time.zero) then 0.0
  else float_of_int t.busy_ns /. Time.to_float_ns elapsed
