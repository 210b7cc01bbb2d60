open Reflex_engine
open Reflex_flash
open Reflex_net
open Reflex_proto

type kind = Libaio | Iscsi

type t = {
  sim : Sim.t;
  kind : kind;
  host : Fabric.host;
  dev : Nvme_model.t;
  workers : Resource.t array;
  per_msg_cpu : Time.t;
  mutable rr : int;
  mutable completed : int;
}

let stack_of = function Libaio -> Stack_model.linux_server | Iscsi -> Stack_model.iscsi_server

let name_of = function Libaio -> "libaio-server" | Iscsi -> "iscsi-target"

let create sim ~fabric ~kind ?(profile = Device_profile.device_a) ?(n_threads = 1)
    ?(seed = 0xBA5E_11E5L) () =
  if n_threads < 1 then invalid_arg "Baseline_server.create: n_threads";
  let stack = stack_of kind in
  {
    sim;
    kind;
    host = Fabric.add_host fabric ~name:(name_of kind) ~stack;
    dev = Nvme_model.create sim ~profile ~prng:(Prng.create seed);
    workers = Array.init n_threads (fun _ -> Resource.create sim);
    per_msg_cpu = stack.Stack_model.per_msg_cpu;
    rr = 0;
    completed = 0;
  }

let host t = t.host

let reply conn msg = Tcp_conn.send_to_client conn ~size:(Codec.encoded_size msg) msg

(* Worker thread: request CPU, then a plain FIFO submission to the device
   (no cost model, no rate limiting, no isolation), then response CPU.
   Completions run at high priority: a libevent loop drains ready
   completions before accepting new socket reads, so overload backs up in
   the receive queue rather than starving responses. *)
let handle_io t worker conn ~kind ~req_id ~len =
  Resource.submit worker ~priority:Resource.Low ~service:t.per_msg_cpu
    (fun () ->
      Nvme_model.submit t.dev ~kind ~bytes:len (fun ~latency:_ ->
          Resource.submit worker ~priority:Resource.High ~service:t.per_msg_cpu
            (fun () ->
              t.completed <- t.completed + 1;
              let msg =
                match (kind : Io_op.kind) with
                | Io_op.Read -> Message.Read_resp { req_id; status = Message.Ok; len }
                | Io_op.Write -> Message.Write_resp { req_id; status = Message.Ok }
              in
              reply conn msg)))

let accept t conn =
  let worker = t.workers.(t.rr) in
  t.rr <- (t.rr + 1) mod Array.length t.workers;
  Tcp_conn.set_server_handler conn (fun msg ~size:_ ->
      match msg with
      | Message.Register { tenant; _ } ->
        (* No SLOs here: registration always succeeds and means nothing. *)
        reply conn (Message.Registered { handle = tenant; status = Message.Ok })
      | Message.Unregister { handle } -> reply conn (Message.Unregistered { handle })
      | Message.Read_req { req_id; len; _ } ->
        handle_io t worker conn ~kind:Io_op.Read ~req_id ~len
      | Message.Write_req { req_id; len; _ } ->
        handle_io t worker conn ~kind:Io_op.Write ~req_id ~len
      | Message.Barrier_req { req_id; _ } ->
        (* No ordering support in the baselines. *)
        reply conn (Message.Error_resp { req_id; status = Message.Bad_request })
      | Message.Registered _ | Message.Unregistered _ | Message.Read_resp _
      | Message.Write_resp _ | Message.Barrier_resp _ | Message.Error_resp _ ->
        reply conn (Message.Error_resp { req_id = 0L; status = Message.Bad_request }))

let requests_completed t = t.completed
