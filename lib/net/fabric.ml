open Reflex_engine

type host = {
  id : int; (* order of [add_host] on this fabric *)
  name : string;
  stack : Stack_model.t;
  tx_link : Resource.t;
  rx_link : Resource.t;
  prng : Prng.t;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
}

type t = {
  sim : Sim.t;
  ns_per_byte : float;
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
  mutable n_hosts : int;
}

(* Fixed propagation delays: one switch traversal, 0.7us per NIC crossing. *)
let switch_latency = Time.of_float_us 1.2
let nic_latency = Time.of_float_us 0.7

let create sim ?(bandwidth_gbps = 10.0) () =
  if bandwidth_gbps <= 0.0 then invalid_arg "Fabric.create: bandwidth";
  {
    sim;
    ns_per_byte = 8.0 /. bandwidth_gbps;
    faulty = false;
    fault_prng = None;
    link_down_until = Time.zero;
    loss_prob = 0.0;
    dup_prob = 0.0;
    rto = Time.ms 1;
    n_hosts = 0;
  }

let sim t = t.sim

let add_host t ~name ~stack =
  let id = t.n_hosts in
  t.n_hosts <- id + 1;
  {
    id;
    name;
    stack;
    tx_link = Resource.create t.sim ~servers:1;
    rx_link = Resource.create t.sim ~servers:1;
    prng = Prng.split (Sim.prng t.sim);
    tx_bytes = 0;
    rx_bytes = 0;
  }

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
  let ser = serialization_time t ~bytes in
  let stall, dup = if t.faulty then fault_penalties t else (Time.zero, false) in
  let start_tx () =
    Resource.submit src.tx_link ~service:ser (fun ~started:_ ~finished:_ ->
        (* NIC -> switch -> NIC propagation. *)
        let wire = Time.add switch_latency (Time.scale nic_latency 2.0) in
        ignore
          (Sim.after t.sim wire (fun () ->
               Resource.submit dst.rx_link ~service:ser (fun ~started:_ ~finished:_ ->
                   dst.rx_bytes <- dst.rx_bytes + bytes;
                   let stack_delay = Stack_model.rx_delay dst.stack dst.prng in
                   ignore (Sim.after t.sim stack_delay k);
                   if dup then
                     (* The duplicate pops out one extra stack delay later:
                        same payload, same continuation; dedup is the
                        receiver's job (see Tcp_conn.arrive). *)
                     ignore
                       (Sim.after t.sim (Time.add stack_delay nic_latency) k)))))
  in
  if Time.(stall > Time.zero) then ignore (Sim.after t.sim stall start_tx) else start_tx ()

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
