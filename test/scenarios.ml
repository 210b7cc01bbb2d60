(* The scenario runs that several tier-1 cases share.  Each is forced at
   most once per test process, by whichever case needs it first; the pin
   table (test_pins.ml) digests the same values, so no scenario runs a
   second time just to be pinned. *)

open Reflex_engine
open Reflex_experiments

let chaos = lazy (Chaos.run ~mode:Common.Quick ~seed:42L ())
let monitor_render () = Monitor_exp.render ~mode:Common.Quick ~seed:11L ()
let monitor = lazy (monitor_render ())
let obs = lazy (Obs_exp.run ~mode:Common.Quick ~seed:42L ())

(* The obs render carries only its first dump's md5; the identity legs
   compare the dump's whole JSON debrief too. *)
let obs_with_dump r = Obs_exp.render_result r ^ Option.value ~default:"" (Obs_exp.first_debrief r)

(* A small coherent rack: 8 servers, 200 tenants, a 12ms window. *)
let rack_small_scale =
  {
    Rack_exp.s_servers = 8;
    s_tenants = 200;
    s_replicas = 3;
    s_warmup = Time.ms 2;
    s_window = Time.ms 12;
    s_settle = Time.ms 2;
    s_total_kiops = 330.0;
    s_hot_tenants = 12;
    s_hot_iops = 500;
  }

let rack_small = lazy (Rack_exp.run ~scale:rack_small_scale ~jobs:1 ())
let trace = lazy (Tracing.run ~mode:Common.Quick ())
