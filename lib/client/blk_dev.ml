open Reflex_engine
open Reflex_flash
open Reflex_net
open Reflex_proto

type t = {
  sim : Sim.t;
  contexts : Client_lib.t array;
  mutable rr : int;
  mutable completed : int;
}

let create sim fabric ~server_host ~accept ~n_contexts ~tenant ?(slo = Message.best_effort_slo)
    ?(name = "blkdev-client") ?retry ?(retry_seed = 0xB10C_5EEDL) () k =
  if n_contexts < 1 then invalid_arg "Blk_dev.create: n_contexts";
  (* All hardware contexts live on one machine: one NIC, one stack. *)
  let host = Fabric.add_host fabric ~name ~stack:Stack_model.linux_client in
  let contexts =
    Array.init n_contexts (fun i ->
        (* Each context gets its own backoff-jitter stream so retry
           schedules across contexts stay independent. *)
        Client_lib.connect sim fabric ~server_host ~accept ~stack:Stack_model.linux_client ~host
          ?retry
          ~retry_seed:Int64.(add retry_seed (of_int i))
          ())
  in
  let t = { sim; contexts; rr = 0; completed = 0 } in
  (* Register every context's connection; ready when the last confirms. *)
  let pending = ref n_contexts in
  Array.iter
    (fun c ->
      Client_lib.register c ~tenant ~slo (fun status ->
          if status <> Message.Ok then failwith "Blk_dev: registration failed";
          decr pending;
          if !pending = 0 then k t))
    contexts;
  ()

let pick t =
  let c = t.contexts.(t.rr) in
  t.rr <- (t.rr + 1) mod Array.length t.contexts;
  c

let submit_bio t ~kind ~lba ~bytes k =
  if bytes <= 0 then invalid_arg "Blk_dev.submit_bio: size";
  let blocks = Io_op.sectors_of_bytes bytes in
  let start = Sim.now t.sim in
  let remaining = ref blocks in
  let complete (_ : Message.status) ~latency:_ =
    decr remaining;
    if !remaining = 0 then begin
      t.completed <- t.completed + 1;
      k ~latency:(Time.diff (Sim.now t.sim) start)
    end
  in
  for i = 0 to blocks - 1 do
    let block_lba = Int64.add lba (Int64.of_int i) in
    let len = min Io_op.lba_size (bytes - (i * Io_op.lba_size)) in
    let len = if len <= 0 then Io_op.lba_size else len in
    let ctx = pick t in
    match kind with
    | Io_op.Read -> Client_lib.read ctx ~lba:block_lba ~len complete
    | Io_op.Write -> Client_lib.write ctx ~lba:block_lba ~len complete
  done

let n_contexts t = Array.length t.contexts
let bios_completed t = t.completed
