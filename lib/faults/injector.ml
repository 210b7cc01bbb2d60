open Reflex_engine
open Reflex_telemetry

(* The injector owns its own PRNG, created from an explicit seed — never
   split from the simulation's root stream.  Arming a plan therefore
   leaves every pre-existing component's random sequence untouched: a run
   with an empty plan is byte-identical to a run without an injector, and
   the same (plan, seed) pair reproduces the same chaos exactly,
   including under domain-parallel experiment sweeps (each world arms its
   own injector). *)

type target = {
  sim : Sim.t;
  device : Reflex_flash.Nvme_model.t option;
  fabric : Reflex_net.Fabric.t option;
  server : Reflex_core.Server.t option;
  gens : Reflex_client.Load_gen.t array;
  telemetry : Telemetry.t;
}

let target ~sim ?device ?fabric ?server ?(gens = [||]) ?(telemetry = Telemetry.disabled) () =
  let device =
    match (device, server) with
    | (Some _ as d), _ -> d
    | None, Some s -> Some (Reflex_core.Server.device s)
    | None, None -> None
  in
  { sim; device; fabric; server; gens; telemetry }

type t = {
  tgt : target;
  prng : Prng.t;
  mutable injected : int;
  mutable recovered : int;
  mutable active : int;
  c_injected : Telemetry.counter; (* faults/injected *)
  c_recovered : Telemetry.counter; (* faults/recovered *)
}

let missing what = invalid_arg (Printf.sprintf "Injector: plan needs a %s target" what)
let device t = match t.tgt.device with Some d -> d | None -> missing "device"
let fabric t = match t.tgt.fabric with Some f -> f | None -> missing "fabric"
let server t = match t.tgt.server with Some s -> s | None -> missing "server"

let gen t i =
  if i < 0 || i >= Array.length t.tgt.gens then
    invalid_arg (Printf.sprintf "Injector: generator %d not in target" i)
  else t.tgt.gens.(i)

(* Degradation re-pricing: after any change to die health, the server's
   control plane follows its device's effective capacity.  Only when the
   target has a server. *)
let reprice_from_device t = Option.iter Reflex_core.Server.reprice_from_device t.tgt.server

let start t (w : Fault_plan.window) =
  (match w.fault with
  | Fault_plan.Die_fail { die } ->
    Reflex_flash.Nvme_model.fail_die (device t) ~die;
    reprice_from_device t
  | Fault_plan.Die_slow { die; factor } ->
    Reflex_flash.Nvme_model.set_die_slowdown (device t) ~die ~factor;
    reprice_from_device t
  | Fault_plan.Gc_storm { bursts_per_die } ->
    Reflex_flash.Nvme_model.gc_storm (device t) ~duration:w.duration ~bursts_per_die
  | Fault_plan.Link_flap ->
    Reflex_net.Fabric.set_link_down_until (fabric t) ~until:(Time.add w.at w.duration)
  | Fault_plan.Packet_loss { prob; rto } -> Reflex_net.Fabric.set_loss (fabric t) ~prob ~rto
  | Fault_plan.Packet_dup { prob } -> Reflex_net.Fabric.set_dup (fabric t) ~prob
  | Fault_plan.Thread_stall { thread } ->
    Reflex_core.Server.inject_thread_stall (server t) ~thread ~duration:w.duration
  | Fault_plan.Tenant_burst { gen = i; factor } ->
    Reflex_client.Load_gen.set_burst_factor (gen t i) factor);
  t.injected <- t.injected + 1;
  t.active <- t.active + 1;
  if Telemetry.enabled t.tgt.telemetry then begin
    Telemetry.incr t.c_injected;
    Telemetry.fault_mark t.tgt.telemetry ~now:(Sim.now t.tgt.sim)
      ~label:(Fault_plan.label w.fault) ~active:true
  end

let stop t (w : Fault_plan.window) =
  (match w.fault with
  | Fault_plan.Die_fail { die } ->
    Reflex_flash.Nvme_model.restore_die (device t) ~die;
    reprice_from_device t
  | Fault_plan.Die_slow { die; _ } ->
    Reflex_flash.Nvme_model.set_die_slowdown (device t) ~die ~factor:1.0;
    reprice_from_device t
  | Fault_plan.Gc_storm _ -> () (* the scheduled bursts are self-limiting *)
  | Fault_plan.Link_flap -> () (* expires by wall clock *)
  | Fault_plan.Packet_loss { rto; _ } ->
    Reflex_net.Fabric.set_loss (fabric t) ~prob:0.0 ~rto
  | Fault_plan.Packet_dup _ -> Reflex_net.Fabric.set_dup (fabric t) ~prob:0.0
  | Fault_plan.Thread_stall _ -> () (* the injected core burst drains *)
  | Fault_plan.Tenant_burst { gen = i; _ } ->
    Reflex_client.Load_gen.set_burst_factor (gen t i) 1.0);
  t.recovered <- t.recovered + 1;
  t.active <- t.active - 1;
  if Telemetry.enabled t.tgt.telemetry then begin
    Telemetry.incr t.c_recovered;
    Telemetry.fault_mark t.tgt.telemetry ~now:(Sim.now t.tgt.sim)
      ~label:(Fault_plan.label w.fault) ~active:false
  end

let needs_fabric = function
  | Fault_plan.Link_flap | Fault_plan.Packet_loss _ | Fault_plan.Packet_dup _ -> true
  | Fault_plan.Die_fail _ | Fault_plan.Die_slow _ | Fault_plan.Gc_storm _
  | Fault_plan.Thread_stall _ | Fault_plan.Tenant_burst _ ->
    false

let arm ?(seed = 0xFA_175EEDL) tgt ~plan =
  let plan = Fault_plan.validate plan in
  let t =
    {
      tgt;
      prng = Prng.create seed;
      injected = 0;
      recovered = 0;
      active = 0;
      c_injected = Telemetry.counter tgt.telemetry "faults/injected";
      c_recovered = Telemetry.counter tgt.telemetry "faults/recovered";
    }
  in
  (* Arm the fabric's fault path once, with a stream derived from the
     injector's own PRNG, if any window needs it. *)
  if List.exists (fun (w : Fault_plan.window) -> needs_fabric w.fault) plan then
    Reflex_net.Fabric.set_fault_prng (fabric t) (Prng.split t.prng);
  (* Pre-intern every window label into the flight recorder now (cold
     path), so the Fault_on/Fault_off records mirrored by fault_mark at
     window transitions never pay the first-use intern, and label ids
     follow plan order rather than transition order. *)
  (let fl = Telemetry.flight tgt.telemetry in
   if Reflex_obs.Flight.enabled fl then
     List.iter
       (fun (w : Fault_plan.window) ->
         ignore (Reflex_obs.Flight.intern fl (Fault_plan.label w.fault)))
       plan);
  List.iter
    (fun (w : Fault_plan.window) ->
      ignore (Sim.at tgt.sim w.at (fun () -> start t w));
      ignore (Sim.at tgt.sim (Time.add w.at w.duration) (fun () -> stop t w)))
    plan;
  t

let injected t = t.injected
let recovered t = t.recovered
let active t = t.active
