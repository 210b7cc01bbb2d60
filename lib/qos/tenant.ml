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
  mutable costs : float array;
  mutable items : 'a array;
  mutable head : int;
  mutable len : int;
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
    costs = [||];
    items = [||];
    head = 0;
    len = 0;
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

(* The queue is a ring over two parallel arrays, a flat [float array]
   of costs and the requests, with power-of-two capacity.  It starts
   empty and grows on demand (the new request fills the fresh slots), so
   an idle tenant holds no queue storage, and enqueue and dequeue build
   no tuple, cell or option.  A dequeued slot keeps its request until
   the ring wraps over it: the dataplane queues int request slots, so
   nothing is pinned there. *)
let grow t req =
  let cap = Array.length t.items in
  let ncap = if cap = 0 then 1 else 2 * cap in
  let costs = Array.make ncap 0.0 and items = Array.make ncap req in
  for k = 0 to t.len - 1 do
    let i = (t.head + k) land (cap - 1) in
    costs.(k) <- t.costs.(i);
    items.(k) <- t.items.(i)
  done;
  t.costs <- costs;
  t.items <- items;
  t.head <- 0

let enqueue t ~cost req =
  if cost <= 0.0 then invalid_arg "Tenant.enqueue: non-positive cost";
  if t.len = Array.length t.items then grow t req;
  let i = (t.head + t.len) land (Array.length t.items - 1) in
  t.costs.(i) <- cost;
  t.items.(i) <- req;
  t.len <- t.len + 1;
  let a = t.acct in
  a.demand <- a.demand +. cost;
  t.backlog.v <- t.backlog.v +. cost

let queue_length t = t.len

let dequeue t =
  if t.len = 0 then invalid_arg "Tenant.dequeue: empty queue";
  let i = t.head in
  let cost = t.costs.(i) in
  t.head <- (i + 1) land (Array.length t.items - 1);
  t.len <- t.len - 1;
  let a = t.acct in
  let before = a.demand in
  let after = before -. cost in
  (* Guard against float drift on long runs. *)
  let after = if after < 0.0 then 0.0 else after in
  a.demand <- after;
  (* Move the backlog by the clamped delta so it tracks the clamped sum. *)
  t.backlog.v <- t.backlog.v +. (after -. before);
  t.items.(i)
