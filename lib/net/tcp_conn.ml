open Reflex_engine
open Reflex_telemetry

(* Per-direction ordering works the way TCP reassembly does: each message
   carries a sequence number, and an out-of-order arrival (receive-side
   jitter can reorder raw deliveries) waits until the gap fills.

   An endpoint's in-flight window [next_deliver, send_seq) lives in a
   ring indexed by [seq land (capacity - 1)]: each slot holds the
   message, its wire size and whether it has arrived.  A message's two
   steps, its sender's transmit delay done and its arrival, are posted
   events on the connection's one handler, whose int argument packs
   [(seq lsl 2) lor (direction lsl 1) lor phase].  So a message
   allocates nothing beyond its own value on the way through. *)

type 'a endpoint = {
  mutable handler : ('a -> size:int -> unit) option;
  pending : ('a * int) Queue.t;
  mutable send_seq : int;
  mutable next_deliver : int;
  (* the in-flight window, grown from capacity 1 by doubling *)
  mutable w_msg : 'a array;
  mutable w_size : int array;
  mutable w_arrived : bool array;
  mutable filler : 'a option; (* the first message sent: blanks delivered slots *)
  mutable delivered : int;
}

type 'a t = {
  fabric : Fabric.t;
  client : Fabric.host;
  server : Fabric.host;
  to_server : 'a endpoint;
  to_client : 'a endpoint;
  mutable h : int; (* the posted-event handler of both directions *)
  (* World-level counters (shared by every connection of the world via
     the registry); untouched when telemetry is off. *)
  tel_on : bool;
  c_to_server : Telemetry.counter; (* net/to_server_msgs *)
  c_to_client : Telemetry.counter; (* net/to_client_msgs *)
  c_ooo : Telemetry.counter; (* net/ooo_buffered *)
  (* Cost profiler (lib/obs), cached off the telemetry instance; scopes
     the send path under the Net bucket.  Disabled by default. *)
  prof : Reflex_obs.Profiler.t;
}

(* The handler argument's low bits. *)
let arrived_bit = 1
let to_client_bit = 2

let make_endpoint () =
  {
    handler = None;
    pending = Queue.create ();
    send_seq = 0;
    next_deliver = 0;
    w_msg = [||];
    w_size = [||];
    w_arrived = [||];
    filler = None;
    delivered = 0;
  }

let deliver ep msg size =
  ep.delivered <- ep.delivered + 1;
  match ep.handler with
  | Some h -> h msg ~size
  | None -> Queue.add (msg, size) ep.pending

let set_handler ep h =
  ep.handler <- Some h;
  Queue.iter (fun (msg, size) -> h msg ~size) ep.pending;
  Queue.clear ep.pending

let set_server_handler t h = set_handler t.to_server h
let set_client_handler t h = set_handler t.to_client h

(* Cold path: the window is full.  Double the ring (from capacity 1)
   and move the in-flight messages to their slots under the new mask;
   [msg] fills the fresh slots. *)
let grow_window ep msg =
  let cap = Array.length ep.w_size in
  let ncap = if cap = 0 then 1 else 2 * cap in
  if ep.filler = None then ep.filler <- Some msg;
  let w_msg = Array.make ncap msg
  and w_size = Array.make ncap 0
  and w_arrived = Array.make ncap false in
  for seq = ep.next_deliver to ep.send_seq - 1 do
    let i = seq land (cap - 1) and j = seq land (ncap - 1) in
    w_msg.(j) <- ep.w_msg.(i);
    w_size.(j) <- ep.w_size.(i);
    w_arrived.(j) <- ep.w_arrived.(i)
  done;
  ep.w_msg <- w_msg;
  ep.w_size <- w_size;
  ep.w_arrived <- w_arrived

(* Deliver from the cursor while the message there has arrived.  Each
   delivered slot is blanked before its handler runs (which may send,
   and so grow a window), so the ring pins no delivered message. *)
let rec drain ep =
  let seq = ep.next_deliver in
  let i = seq land (Array.length ep.w_size - 1) in
  if seq < ep.send_seq && ep.w_arrived.(i) then begin
    let msg = ep.w_msg.(i) and size = ep.w_size.(i) in
    ep.w_arrived.(i) <- false;
    (match ep.filler with Some f -> ep.w_msg.(i) <- f | None -> ());
    ep.next_deliver <- seq + 1;
    deliver ep msg size;
    drain ep
  end

let arrive t ep seq =
  (* Duplicate suppression: a fault-injected duplicate (or, in a real
     stack, a retransmitted segment racing its original) arrives with a
     sequence number already delivered; reassembly drops it, since its
     slot may already carry a later message. *)
  if seq >= ep.next_deliver then begin
    (* A gap means receive-side jitter reordered raw deliveries. *)
    if t.tel_on && seq <> ep.next_deliver then Telemetry.incr t.c_ooo;
    ep.w_arrived.(seq land (Array.length ep.w_size - 1)) <- true;
    drain ep
  end

(* The connection's one handler: a message's transmit delay is done (it
   enters the fabric, whose delivery is this handler again with the
   arrived bit set), or it has arrived. *)
let on_event t arg =
  let seq = arg lsr 2 in
  let to_client = arg land to_client_bit <> 0 in
  let ep = if to_client then t.to_client else t.to_server in
  if arg land arrived_bit <> 0 then arrive t ep seq
  else
    Fabric.post_transmit t.fabric
      ~src:(if to_client then t.server else t.client)
      ~dst:(if to_client then t.client else t.server)
      ~bytes:ep.w_size.(seq land (Array.length ep.w_size - 1))
      t.h (arg lor arrived_bit)

let send t ~src ~ep ~dir ~size msg =
  Reflex_obs.Profiler.enter t.prof Reflex_obs.Profiler.Subsystem.Net;
  let sim = Fabric.sim t.fabric in
  let seq = ep.send_seq in
  if seq - ep.next_deliver = Array.length ep.w_size then grow_window ep msg;
  let i = seq land (Array.length ep.w_size - 1) in
  ep.w_msg.(i) <- msg;
  ep.w_size.(i) <- size;
  ep.send_seq <- seq + 1;
  let tx = Stack_model.tx_delay (Fabric.host_stack src) (Sim.prng sim) in
  Sim.post_after sim tx t.h ((seq lsl 2) lor dir);
  Reflex_obs.Profiler.leave t.prof Reflex_obs.Profiler.Subsystem.Net

let send_to_server t ~size msg =
  if t.tel_on then Telemetry.incr t.c_to_server;
  send t ~src:t.client ~ep:t.to_server ~dir:0 ~size msg

let send_to_client t ~size msg =
  if t.tel_on then Telemetry.incr t.c_to_client;
  send t ~src:t.server ~ep:t.to_client ~dir:to_client_bit ~size msg

let connect ?(telemetry = Telemetry.disabled) fabric ~client ~server =
  let t =
    {
      fabric;
      client;
      server;
      to_server = make_endpoint ();
      to_client = make_endpoint ();
      h = -1;
      tel_on = Telemetry.enabled telemetry;
      c_to_server = Telemetry.counter telemetry "net/to_server_msgs";
      c_to_client = Telemetry.counter telemetry "net/to_client_msgs";
      c_ooo = Telemetry.counter telemetry "net/ooo_buffered";
      prof = Telemetry.profiler telemetry;
    }
  in
  t.h <- Sim.handler (Fabric.sim fabric) (on_event t);
  t

let client_host t = t.client
let server_host t = t.server
let delivered_to_server t = t.to_server.delivered
let delivered_to_client t = t.to_client.delivered
