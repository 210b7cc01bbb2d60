(** Opt-in feedback loop from fired alerts to control-plane actions.

    Alerting is a pure observer by default; experiments opt into
    remediation by binding rule names to actions in the {!Monitor}
    facade.  Every action is a deterministic function of simulation
    state, so remediated runs replay bit-identically. *)

open Reflex_core

type action =
  | Reprice_for_device
      (** Re-derive the capacity factor from current device health
          ({!Server.reprice_from_device}). *)
  | Log of string  (** No-op marker; lands in the remediation log. *)

val label : action -> string

(** Apply one action; returns a one-line outcome for the remediation
    log. *)
val apply : Server.t -> action -> string
