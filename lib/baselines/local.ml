open Reflex_engine
open Reflex_flash

type t = {
  sim : Sim.t;
  dev : Nvme_model.t;
  cores : Resource.t array;
  mutable rr : int;
  mutable completed : int;
}

(* 1.15us per I/O across submission and completion: 870K IOPS/core. *)
let submit_cpu = Time.ns 500
let complete_cpu = Time.ns 650

let create sim ?(profile = Device_profile.device_a) ?(n_threads = 1) ?(seed = 0x10CA1_5EEDL) () =
  if n_threads < 1 then invalid_arg "Local.create: n_threads";
  {
    sim;
    dev = Nvme_model.create sim ~profile ~prng:(Prng.create seed);
    cores = Array.init n_threads (fun _ -> Resource.create sim);
    rr = 0;
    completed = 0;
  }

let submit t ~kind ~bytes k =
  let core = t.cores.(t.rr) in
  t.rr <- (t.rr + 1) mod Array.length t.cores;
  let issued_at = Sim.now t.sim in
  Resource.submit core ~service:submit_cpu (fun () ->
      Nvme_model.submit t.dev ~kind ~bytes (fun ~latency:_ ->
          Resource.submit core ~service:complete_cpu (fun () ->
              t.completed <- t.completed + 1;
              k ~latency:(Time.diff (Sim.now t.sim) issued_at))))

let completed t = t.completed
