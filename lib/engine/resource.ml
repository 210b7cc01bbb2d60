type priority = High | Low

type job = {
  service : Time.t;
  callback : started:Time.t -> finished:Time.t -> unit;
}

type t = {
  sim : Sim.t;
  servers : int;
  created_at : Time.t;
  high : job Queue.t;
  low : job Queue.t;
  mutable busy : int;
  mutable busy_time : Time.t;
  mutable completed : int;
}

let create sim ~servers =
  if servers < 1 then invalid_arg "Resource.create: servers < 1";
  {
    sim;
    servers;
    created_at = Sim.now sim;
    high = Queue.create ();
    low = Queue.create ();
    busy = 0;
    busy_time = Time.zero;
    completed = 0;
  }

let rec start t job =
  t.busy <- t.busy + 1;
  let started = Sim.now t.sim in
  ignore
    (Sim.after t.sim job.service (fun () ->
         let finished = Sim.now t.sim in
         t.busy <- t.busy - 1;
         t.busy_time <- Time.add t.busy_time job.service;
         t.completed <- t.completed + 1;
         dispatch t;
         job.callback ~started ~finished))

and dispatch t =
  if t.busy < t.servers then
    match Queue.take_opt t.high with
    | Some job -> start t job
    | None -> (
      match Queue.take_opt t.low with
      | Some job -> start t job
      | None -> ())

let submit t ?(priority = High) ~service callback =
  if Time.(service < Time.zero) then invalid_arg "Resource.submit: negative service";
  let job = { service; callback } in
  if t.busy < t.servers then start t job
  else
    match priority with
    | High -> Queue.add job t.high
    | Low -> Queue.add job t.low

let busy t = t.busy
let queued t = (Queue.length t.high, Queue.length t.low)

let utilization t =
  let elapsed = Time.diff (Sim.now t.sim) t.created_at in
  if Time.(elapsed <= Time.zero) then 0.0
  else Time.to_float_ns t.busy_time /. (Time.to_float_ns elapsed *. float_of_int t.servers)

let completed t = t.completed
