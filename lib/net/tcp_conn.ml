open Reflex_engine
open Reflex_telemetry

(* Per-direction ordering works the way TCP reassembly does: each message
   carries a sequence number; out-of-order arrivals (receive-side jitter
   can reorder raw deliveries) are buffered until the gap fills. *)

type 'a endpoint = {
  mutable handler : ('a -> size:int -> unit) option;
  pending : ('a * int) Queue.t;
  mutable send_seq : int;
  mutable next_deliver : int;
  out_of_order : (int, 'a * int) Hashtbl.t;
  mutable delivered : int;
}

type 'a t = {
  fabric : Fabric.t;
  client : Fabric.host;
  server : Fabric.host;
  to_server : 'a endpoint;
  to_client : 'a endpoint;
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

let make_endpoint () =
  {
    handler = None;
    pending = Queue.create ();
    send_seq = 0;
    next_deliver = 0;
    out_of_order = Hashtbl.create 16;
    delivered = 0;
  }

let connect ?(telemetry = Telemetry.disabled) fabric ~client ~server =
  {
    fabric;
    client;
    server;
    to_server = make_endpoint ();
    to_client = make_endpoint ();
    tel_on = Telemetry.enabled telemetry;
    c_to_server = Telemetry.counter telemetry "net/to_server_msgs";
    c_to_client = Telemetry.counter telemetry "net/to_client_msgs";
    c_ooo = Telemetry.counter telemetry "net/ooo_buffered";
    prof = Telemetry.profiler telemetry;
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

let arrive t ep seq msg size =
  (* Duplicate suppression: a fault-injected duplicate (or, in a real
     stack, a retransmitted segment racing its original) arrives with a
     sequence number already delivered; reassembly drops it, otherwise
     it would sit in [out_of_order] below the cursor forever. *)
  if seq < ep.next_deliver then ()
  else if seq = ep.next_deliver && Hashtbl.length ep.out_of_order = 0 then begin
    (* In order with nothing buffered, the common case: deliver at once,
       with no reassembly-table round trip. *)
    ep.next_deliver <- seq + 1;
    deliver ep msg size
  end
  else begin
    (* A gap means receive-side jitter reordered raw deliveries. *)
    if t.tel_on && seq <> ep.next_deliver then Telemetry.incr t.c_ooo;
    Hashtbl.replace ep.out_of_order seq (msg, size);
    let rec drain () =
      match Hashtbl.find_opt ep.out_of_order ep.next_deliver with
      | Some (m, s) ->
        Hashtbl.remove ep.out_of_order ep.next_deliver;
        ep.next_deliver <- ep.next_deliver + 1;
        deliver ep m s;
        drain ()
      | None -> ()
    in
    drain ()
  end

let send t ~src ~dst ~ep ~size msg =
  Reflex_obs.Profiler.enter t.prof Reflex_obs.Profiler.Subsystem.Net;
  let sim = Fabric.sim t.fabric in
  let seq = ep.send_seq in
  ep.send_seq <- seq + 1;
  let tx = Stack_model.tx_delay (Fabric.host_stack src) (Sim.prng sim) in
  ignore
    (Sim.after sim tx (fun () ->
         Fabric.transmit t.fabric ~src ~dst ~bytes:size (fun () -> arrive t ep seq msg size)));
  Reflex_obs.Profiler.leave t.prof Reflex_obs.Profiler.Subsystem.Net

let send_to_server t ~size msg =
  if t.tel_on then Telemetry.incr t.c_to_server;
  send t ~src:t.client ~dst:t.server ~ep:t.to_server ~size msg

let send_to_client t ~size msg =
  if t.tel_on then Telemetry.incr t.c_to_client;
  send t ~src:t.server ~dst:t.client ~ep:t.to_client ~size msg

let client_host t = t.client
let server_host t = t.server
let delivered_to_server t = t.to_server.delivered
let delivered_to_client t = t.to_client.delivered
