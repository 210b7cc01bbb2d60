module Cell = Reflex_engine.Cell

type acct = {
  mutable tokens : float;
  mutable demand : float;
  mutable token_rate : float;
  mutable granted_total : float;
  mutable submitted_cost : float;
}

type 'a t = {
  id : int;
  slo : Slo.t;
  queue : (float * 'a) Queue.t;
  acct : acct;
  grants : float array;
  mutable grant_pos : int;
  mutable backlog : Cell.t;
}

let create ~id ~slo ~token_rate =
  if token_rate < 0.0 then invalid_arg "Tenant.create: negative token rate";
  {
    id;
    slo;
    queue = Queue.create ();
    acct = { tokens = 0.0; demand = 0.0; token_rate; granted_total = 0.0; submitted_cost = 0.0 };
    grants = Array.make 3 0.0;
    grant_pos = 0;
    backlog = { Cell.v = 0.0 };
  }

let id t = t.id
let slo t = t.slo
let is_latency_critical t = Slo.is_latency_critical t.slo

let set_token_rate t r =
  if r < 0.0 then invalid_arg "Tenant.set_token_rate: negative rate";
  t.acct.token_rate <- r

let enqueue t ~cost req =
  if cost <= 0.0 then invalid_arg "Tenant.enqueue: non-positive cost";
  Queue.add (cost, req) t.queue;
  let a = t.acct in
  a.demand <- a.demand +. cost;
  t.backlog.v <- t.backlog.v +. cost

let queue_length t = Queue.length t.queue

let dequeue t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some (cost, _) as head ->
    let a = t.acct in
    let before = a.demand in
    let after = before -. cost in
    (* Guard against float drift on long runs. *)
    let after = if after < 0.0 then 0.0 else after in
    a.demand <- after;
    (* Move the backlog by the clamped delta so it tracks the clamped sum. *)
    t.backlog.v <- t.backlog.v +. (after -. before);
    head
