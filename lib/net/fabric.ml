open Reflex_engine

(* A link serves one message at a time, in FIFO order: [busy] while one
   serializes, and queued message ids wait in [queue]. *)
type link = { mutable busy : bool; queue : Int_fifo.t }

type host = {
  id : int; (* order of [add_host] on this fabric *)
  name : string;
  stack : Stack_model.t;
  tx : link;
  rx : link;
  prng : Prng.t;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
}

type t = {
  sim : Sim.t;
  ns_per_byte : float;
  mutable hosts : host array; (* indexed by [host.id] *)
  mutable n_hosts : int;
  (* In-flight message arena (parallel arrays indexed by message id):
     each hop is a posted event carrying the id, and the delivery is a
     posted (handler, arg), so a message costs no closure and no job
     record between [post_transmit] and its delivery. *)
  mutable m_src : int array;
  mutable m_dst : int array;
  mutable m_bytes : int array;
  mutable m_ser : int array; (* serialization ns, both links *)
  mutable m_dup : bool array;
  mutable m_h : int array; (* the delivery: posted handler ... *)
  mutable m_arg : int array; (* ... and its argument *)
  msgs : Slots.t;
  (* [transmit]'s continuations, parked by slot until their last
     delivery ([k_due] counts the deliveries still to come: two for a
     duplicated message) *)
  mutable k_fn : (unit -> unit) array;
  mutable k_due : int array;
  ks : Slots.t;
  (* posted-event handler ids, registered in [create] *)
  mutable h_tx_done : int;
  mutable h_wire : int;
  mutable h_rx_done : int;
  mutable h_stalled : int;
  mutable h_k : int;
  (* ---- fault-injection state (lib/faults) ----
     [faulty] is the single guard [transmit] reads; while false (the
     default) the pre-fault code path runs unchanged and no extra PRNG
     draws happen, keeping fault-free builds byte-identical.  The fault
     PRNG is owned by the injector (passed in via [set_fault_prng]), so
     arming faults never perturbs the simulation's root PRNG streams. *)
  mutable faulty : bool;
  mutable fault_prng : Prng.t option;
  mutable link_down_until : Time.t; (* flap: transmissions stall until then *)
  mutable loss_prob : float; (* per-message retransmission probability *)
  mutable dup_prob : float; (* per-message duplicate-delivery probability *)
  mutable rto : Time.t; (* retransmission delay charged per loss *)
}

(* Fixed propagation delays: one switch traversal, 0.7us per NIC crossing. *)
let switch_latency = Time.of_float_us 1.2
let nic_latency = Time.of_float_us 0.7

(* NIC -> switch -> NIC propagation of every message. *)
let wire = Time.add switch_latency (Time.scale nic_latency 2.0)

let noop () = ()

(* ---- links ---- *)

let make_link () = { busy = false; queue = Int_fifo.create () }

(* Start message [m] on link [l], whose completion is handler [h], or
   queue it behind the message in service. *)
let link_submit t l h m =
  if l.busy then Int_fifo.push l.queue m
  else begin
    l.busy <- true;
    Sim.post_after t.sim (Time.ns t.m_ser.(m)) h m
  end

(* The message in service on [l] finished: start the next queued one, if
   any.  Callers run this before the finished message's own next step,
   so the next message's event is scheduled first. *)
let link_next t l h =
  if Int_fifo.length l.queue = 0 then l.busy <- false
  else begin
    let m = Int_fifo.pop l.queue in
    Sim.post_after t.sim (Time.ns t.m_ser.(m)) h m
  end

(* ---- the message arena ---- *)

(* Cold path: the message ids doubled, so the field arrays follow. *)
let grow_msgs t =
  let ncap = Slots.capacity t.msgs in
  t.m_src <- Slots.extend t.m_src ncap 0;
  t.m_dst <- Slots.extend t.m_dst ncap 0;
  t.m_bytes <- Slots.extend t.m_bytes ncap 0;
  t.m_ser <- Slots.extend t.m_ser ncap 0;
  t.m_dup <- Slots.extend t.m_dup ncap false;
  t.m_h <- Slots.extend t.m_h ncap 0;
  t.m_arg <- Slots.extend t.m_arg ncap 0

let alloc_msg t ~src ~dst ~bytes ~ser h arg =
  let m = Slots.alloc t.msgs in
  if m >= Array.length t.m_src then grow_msgs t;
  t.m_src.(m) <- src.id;
  t.m_dst.(m) <- dst.id;
  t.m_bytes.(m) <- bytes;
  t.m_ser.(m) <- ser;
  t.m_dup.(m) <- false;
  t.m_h.(m) <- h;
  t.m_arg.(m) <- arg;
  m

(* ---- the hops, as posted events over a message id ---- *)

(* Source tx link done: the next queued message starts, then this one
   crosses the wire. *)
let on_tx_done t m =
  link_next t t.hosts.(t.m_src.(m)).tx t.h_tx_done;
  Sim.post_after t.sim wire t.h_wire m

let on_wire t m = link_submit t t.hosts.(t.m_dst.(m)).rx t.h_rx_done m

(* A flap or a loss stalled the message before its tx link. *)
let on_stalled t m = link_submit t t.hosts.(t.m_src.(m)).tx t.h_tx_done m

(* Destination rx link done: the next queued message starts, the message
   leaves the arena, and its delivery is posted after the destination
   stack's receive delay (twice when duplicated). *)
let on_rx_done t m =
  let dst = t.hosts.(t.m_dst.(m)) in
  link_next t dst.rx t.h_rx_done;
  let h = t.m_h.(m) and arg = t.m_arg.(m) and dup = t.m_dup.(m) in
  dst.rx_bytes <- dst.rx_bytes + t.m_bytes.(m);
  Slots.free t.msgs m;
  let stack_delay = Stack_model.rx_delay dst.stack dst.prng in
  Sim.post_after t.sim stack_delay h arg;
  if dup then
    (* The duplicate pops out one extra stack delay later: same payload,
       same delivery; dedup is the receiver's job (see Tcp_conn). *)
    Sim.post_after t.sim (Time.add stack_delay nic_latency) h arg

(* ---- the closure form's continuation table ---- *)

(* Cold path: the slots doubled, so the table follows. *)
let grow_ks t =
  let ncap = Slots.capacity t.ks in
  t.k_fn <- Slots.extend t.k_fn ncap noop;
  t.k_due <- Slots.extend t.k_due ncap 0

(* A delivery of the continuation parked at [slot]: the last one frees
   the slot (blanked, so it pins nothing) before the continuation runs. *)
let on_k t slot =
  let k = t.k_fn.(slot) in
  let due = t.k_due.(slot) - 1 in
  t.k_due.(slot) <- due;
  if due = 0 then begin
    t.k_fn.(slot) <- noop;
    Slots.free t.ks slot
  end;
  k ()

let create sim ?(bandwidth_gbps = 10.0) () =
  if bandwidth_gbps <= 0.0 then invalid_arg "Fabric.create: bandwidth";
  let t =
    {
      sim;
      ns_per_byte = 8.0 /. bandwidth_gbps;
      hosts = [||];
      n_hosts = 0;
      m_src = [||];
      m_dst = [||];
      m_bytes = [||];
      m_ser = [||];
      m_dup = [||];
      m_h = [||];
      m_arg = [||];
      msgs = Slots.create 64;
      k_fn = [||];
      k_due = [||];
      ks = Slots.create 8;
      h_tx_done = 0;
      h_wire = 0;
      h_rx_done = 0;
      h_stalled = 0;
      h_k = 0;
      faulty = false;
      fault_prng = None;
      link_down_until = Time.zero;
      loss_prob = 0.0;
      dup_prob = 0.0;
      rto = Time.ms 1;
    }
  in
  t.h_tx_done <- Sim.handler sim (on_tx_done t);
  t.h_wire <- Sim.handler sim (on_wire t);
  t.h_rx_done <- Sim.handler sim (on_rx_done t);
  t.h_stalled <- Sim.handler sim (on_stalled t);
  t.h_k <- Sim.handler sim (on_k t);
  t

let sim t = t.sim

let add_host t ~name ~stack =
  let id = t.n_hosts in
  let h =
    {
      id;
      name;
      stack;
      tx = make_link ();
      rx = make_link ();
      prng = Prng.split (Sim.prng t.sim);
      tx_bytes = 0;
      rx_bytes = 0;
    }
  in
  if id = Array.length t.hosts then t.hosts <- Slots.extend t.hosts (max 8 (2 * id)) h;
  t.hosts.(id) <- h;
  t.n_hosts <- id + 1;
  h

let host_id h = h.id
let host_name h = h.name
let host_stack h = h.stack

let serialization_time t ~bytes = Time.of_float_ns (float_of_int bytes *. t.ns_per_byte)

(* Fault penalties charged to one transmission, computed before the tx
   link is occupied.  A link flap stalls the message until the link is
   back; a "lost" message is charged one retransmission timeout (TCP
   retransmits — the stream never actually loses a segment, it just
   arrives an RTO later); a duplicated message is delivered twice (the
   receiver's reassembly layer suppresses the copy). *)
let fault_penalties t =
  match t.fault_prng with
  | None -> (Time.zero, false)
  | Some prng ->
    let now = Sim.now t.sim in
    let stall =
      if Time.(now < t.link_down_until) then Time.diff t.link_down_until now else Time.zero
    in
    let stall =
      if t.loss_prob > 0.0 && Prng.bool prng t.loss_prob then Time.add stall t.rto else stall
    in
    let dup = t.dup_prob > 0.0 && Prng.bool prng t.dup_prob in
    (stall, dup)

let check_size bytes = if bytes <= 0 then invalid_arg "Fabric.transmit: non-positive size"

(* Start a message towards its posted delivery [(h, arg)]; returns the
   message id. *)
let submit t ~src ~dst ~bytes h arg =
  src.tx_bytes <- src.tx_bytes + bytes;
  let ser = Int64.to_int (serialization_time t ~bytes) in
  let m = alloc_msg t ~src ~dst ~bytes ~ser h arg in
  if not t.faulty then link_submit t src.tx t.h_tx_done m
  else begin
    let stall, dup = fault_penalties t in
    t.m_dup.(m) <- dup;
    if Time.(stall > Time.zero) then Sim.post_after t.sim stall t.h_stalled m
    else link_submit t src.tx t.h_tx_done m
  end;
  m

let post_transmit t ~src ~dst ~bytes h arg =
  check_size bytes;
  ignore (submit t ~src ~dst ~bytes h arg)

(* The closure form: [k] is parked in the continuation table, whose
   handler is the message's delivery. *)
let transmit t ~src ~dst ~bytes k =
  check_size bytes;
  let slot = Slots.alloc t.ks in
  if slot >= Array.length t.k_fn then grow_ks t;
  t.k_fn.(slot) <- k;
  let m = submit t ~src ~dst ~bytes t.h_k slot in
  t.k_due.(slot) <- (if t.m_dup.(m) then 2 else 1)

let bytes_sent h = h.tx_bytes
let bytes_received h = h.rx_bytes

(* ---- Fault-injection API (driven by Reflex_faults.Injector) ---------- *)

let set_fault_prng t prng =
  t.fault_prng <- Some prng;
  t.faulty <- true

let set_link_down_until t ~until = t.link_down_until <- until

let check_prob name p =
  if p < 0.0 || p >= 1.0 then invalid_arg (Printf.sprintf "Fabric.%s: probability" name)

let set_loss t ~prob ~rto =
  check_prob "set_loss" prob;
  if Time.(rto <= Time.zero) && prob > 0.0 then invalid_arg "Fabric.set_loss: rto";
  t.loss_prob <- prob;
  t.rto <- (if Time.(rto > Time.zero) then rto else t.rto)

let set_dup t ~prob =
  check_prob "set_dup" prob;
  t.dup_prob <- prob
