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
     each hop is a posted event carrying the id, so a message costs no
     closure and no job record between [transmit] and its delivery. *)
  mutable m_src : int array;
  mutable m_dst : int array;
  mutable m_bytes : int array;
  mutable m_ser : int array; (* serialization ns, both links *)
  mutable m_dup : bool array;
  mutable m_k : (unit -> unit) array; (* the delivery continuation *)
  mutable m_free : int array; (* freelist stack of message ids *)
  mutable m_free_len : int;
  (* posted-event handler ids, registered in [create] *)
  mutable h_tx_done : int;
  mutable h_wire : int;
  mutable h_rx_done : int;
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

(* Cold path: double the arena and push the fresh ids onto the freelist
   (low ids are reused first). *)
let grow_msgs t =
  let cap = Array.length t.m_src in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let grow a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 cap;
    na
  in
  t.m_src <- grow t.m_src 0;
  t.m_dst <- grow t.m_dst 0;
  t.m_bytes <- grow t.m_bytes 0;
  t.m_ser <- grow t.m_ser 0;
  t.m_dup <- grow t.m_dup false;
  t.m_k <- grow t.m_k noop;
  t.m_free <- grow t.m_free 0;
  for m = ncap - 1 downto cap do
    t.m_free.(t.m_free_len) <- m;
    t.m_free_len <- t.m_free_len + 1
  done

let alloc_msg t ~src ~dst ~bytes ~ser k =
  if t.m_free_len = 0 then grow_msgs t;
  t.m_free_len <- t.m_free_len - 1;
  let m = t.m_free.(t.m_free_len) in
  t.m_src.(m) <- src.id;
  t.m_dst.(m) <- dst.id;
  t.m_bytes.(m) <- bytes;
  t.m_ser.(m) <- ser;
  t.m_dup.(m) <- false;
  t.m_k.(m) <- k;
  m

(* ---- the hops, as posted events over a message id ---- *)

(* Source tx link done: the next queued message starts, then this one
   crosses the wire. *)
let on_tx_done t m =
  link_next t t.hosts.(t.m_src.(m)).tx t.h_tx_done;
  Sim.post_after t.sim wire t.h_wire m

let on_wire t m = link_submit t t.hosts.(t.m_dst.(m)).rx t.h_rx_done m

(* Destination rx link done: the next queued message starts, the message
   leaves the arena, and its continuation runs after the destination
   stack's receive delay (twice when duplicated). *)
let on_rx_done t m =
  let dst = t.hosts.(t.m_dst.(m)) in
  link_next t dst.rx t.h_rx_done;
  let k = t.m_k.(m) and dup = t.m_dup.(m) in
  dst.rx_bytes <- dst.rx_bytes + t.m_bytes.(m);
  t.m_k.(m) <- noop;
  t.m_free.(t.m_free_len) <- m;
  t.m_free_len <- t.m_free_len + 1;
  let stack_delay = Stack_model.rx_delay dst.stack dst.prng in
  ignore (Sim.after t.sim stack_delay k);
  if dup then
    (* The duplicate pops out one extra stack delay later: same payload,
       same continuation; dedup is the receiver's job (see
       Tcp_conn.arrive). *)
    ignore (Sim.after t.sim (Time.add stack_delay nic_latency) k)

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
      m_k = [||];
      m_free = [||];
      m_free_len = 0;
      h_tx_done = 0;
      h_wire = 0;
      h_rx_done = 0;
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
  if id = Array.length t.hosts then begin
    let nh = Array.make (if id = 0 then 8 else id * 2) h in
    Array.blit t.hosts 0 nh 0 id;
    t.hosts <- nh
  end;
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

let transmit t ~src ~dst ~bytes k =
  if bytes <= 0 then invalid_arg "Fabric.transmit: non-positive size";
  src.tx_bytes <- src.tx_bytes + bytes;
  let ser = Int64.to_int (serialization_time t ~bytes) in
  let m = alloc_msg t ~src ~dst ~bytes ~ser k in
  if not t.faulty then link_submit t src.tx t.h_tx_done m
  else begin
    let stall, dup = fault_penalties t in
    t.m_dup.(m) <- dup;
    if Time.(stall > Time.zero) then
      ignore (Sim.after t.sim stall (fun () -> link_submit t src.tx t.h_tx_done m))
    else link_submit t src.tx t.h_tx_done m
  end

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
