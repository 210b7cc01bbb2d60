(* Replay kernels.  Until the program records its own spans, the slice
   spans' self time is the in-[Sim.run] work of engine, core, qos, flash
   and net together; these kernels split it by timing one layer's entry
   point alone, fed with the workload's own message sizes, read ratio and
   tenant set.  They run after the workload, in the traced run only. *)

open Reflex_engine
open Reflex_net
open Reflex_flash
open Reflex_proto
open Reflex_qos
module Hdr = Reflex_stats.Hdr_histogram
module Server = Reflex_core.Server
module Control_plane = Reflex_core.Control_plane

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ns per operation of [f n], median of seven timed batches. *)
let per_op ~n f =
  f n;
  median
    (Array.init 7 (fun _ ->
         let t0 = Spans.now_ns () in
         f n;
         float_of_int (Spans.now_ns () - t0) /. float_of_int n))

(* The wire size of each message one request puts on the fabric. *)
let message_sizes ~read_ratio ~bytes =
  let kinds = Load.paced_mix ~read_ratio 20 in
  Array.concat
    (Array.to_list
       (Array.map
          (fun write ->
            let req, resp =
              if write then
                ( Message.Write_req { handle = 1; req_id = 1L; lba = 0L; len = bytes },
                  Message.Write_resp { req_id = 1L; status = Message.Ok } )
              else
                ( Message.Read_req { handle = 1; req_id = 1L; lba = 0L; len = bytes },
                  Message.Read_resp { req_id = 1L; status = Message.Ok; len = bytes } )
            in
            [| Codec.encoded_size req; Codec.encoded_size resp |])
          kinds))

(* [Fabric.transmit] plus the events it schedules, per message. *)
let transmit_ns ~read_ratio ~bytes =
  let sizes = message_sizes ~read_ratio ~bytes in
  let sim = Sim.create ~seed:7L () in
  let fabric = Fabric.create sim () in
  let src = Fabric.add_host fabric ~name:"client" ~stack:Stack_model.ix_client in
  let dst = Fabric.add_host fabric ~name:"server" ~stack:Stack_model.dataplane_server in
  let k () = () in
  per_op ~n:20_000 (fun n ->
      for i = 0 to n - 1 do
        Fabric.transmit fabric ~src ~dst ~bytes:sizes.(i mod Array.length sizes) k;
        if i land 63 = 63 then ignore (Sim.run sim)
      done;
      ignore (Sim.run sim))

(* [Nvme_model.submit] plus the device events it schedules, per op. *)
let submit_ns ~read_ratio ~bytes =
  let sim = Sim.create ~seed:7L () in
  let dev = Nvme_model.create sim ~profile:Device_profile.device_a ~prng:(Prng.create 7L) in
  let kinds = Load.paced_mix ~read_ratio 20 in
  let k ~latency:_ = () in
  per_op ~n:20_000 (fun n ->
      for i = 0 to n - 1 do
        let kind = if kinds.(i mod 20) then Io_op.Write else Io_op.Read in
        Nvme_model.submit dev ~kind ~bytes k;
        if i land 31 = 31 then ignore (Sim.run sim)
      done;
      ignore (Sim.run sim))

(* The registered tenants of the world's busiest server, with the SLOs
   and token rates its control plane holds. *)
let tenant_set servers =
  let srv =
    Array.fold_left
      (fun best s -> if Server.registered_tenants s > Server.registered_tenants best then s else best)
      servers.(0) servers
  in
  let cp = Server.control_plane srv in
  let lc = Control_plane.lc_tenants cp in
  List.map
    (fun (id, rate) ->
      let slo = match List.assoc_opt id lc with Some s -> s | None -> Slo.best_effort () in
      (id, slo, rate))
    (Control_plane.current_rates cp)

(* One [Scheduler.schedule] round over the workload's tenant set, every
   tenant kept with one request queued; the clock covers only the
   round. *)
let round_ns ~tenants ~read_ratio ~bytes =
  let global = Global_bucket.create ~n_threads:1 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  let ts =
    List.map
      (fun (id, slo, rate) ->
        let t = Tenant.create ~id ~slo ~token_rate:rate in
        Scheduler.add_tenant sched t;
        t)
      tenants
  in
  let cm = Cost_model.of_profile Device_profile.device_a in
  let cost kind = Cost_model.request_cost cm ~kind ~bytes ~read_only:(read_ratio >= 1.0) in
  let kinds = Load.paced_mix ~read_ratio 20 in
  let now = ref 0 and round = ref 0 in
  let submit _ = () in
  let batch n =
    let spent = ref 0 in
    for _ = 1 to n do
      incr round;
      now := !now + 10_000;
      List.iter
        (fun t ->
          if Tenant.queue_length t = 0 then
            let kind = if kinds.(!round mod 20) then Io_op.Write else Io_op.Read in
            Scheduler.enqueue sched ~tenant_id:(Tenant.id t) ~cost:(cost kind) ())
        ts;
      let t0 = Spans.now_ns () in
      ignore (Scheduler.schedule sched ~now:(Time.ns !now) ~submit);
      spent := !spent + (Spans.now_ns () - t0)
    done;
    float_of_int !spent /. float_of_int n
  in
  ignore (batch 50);
  median (Array.init 5 (fun _ -> batch 400))

(* [Hdr_histogram.record] over values spread like the workload's own
   latencies. *)
let record_ns latency =
  let values =
    Array.init 4096 (fun i ->
        if Hdr.count latency = 0 then Int64.of_int (1000 + i)
        else Hdr.percentile latency (100.0 *. float_of_int i /. 4096.0))
  in
  let h = Hdr.create () in
  per_op ~n:200_000 (fun n ->
      for i = 0 to n - 1 do
        Hdr.record h values.(i land 4095)
      done)
