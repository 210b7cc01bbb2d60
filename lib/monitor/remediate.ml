open Reflex_core

(* Opt-in feedback loop from fired alerts to control-plane actions.

   The monitor never mutates the world by default — alerting stays a
   pure observer so a monitored run is bit-identical to an unmonitored
   one.  When an experiment opts in, it binds alert rules to actions
   here; Monitor applies each binding at most once per cooldown so a
   rule that keeps firing does not spam the control plane. *)

type action =
  | Reprice_for_device (* re-derive the factor from device health *)
  | Log of string (* no-op marker, lands in the remediation log *)

let label = function
  | Reprice_for_device -> "reprice_for_device"
  | Log s -> Printf.sprintf "log(%s)" s

(* Apply one action; returns a one-line outcome for the remediation
   log.  All outcomes are deterministic functions of simulation state. *)
let apply server = function
  | Reprice_for_device ->
    Server.reprice_from_device server;
    Printf.sprintf "repriced from device health (factor=%.2f)"
      (Control_plane.capacity_factor (Server.control_plane server))
  | Log msg -> msg
