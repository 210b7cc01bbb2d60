(** The canonical telemetry scenario for `reflex_sim trace`: a Fig-6-style
    multi-tenant run (2 cores, 2 LC tenants with 200us/500us SLOs, 2 BE
    write floods) executed with lifecycle tracing, metrics sampling and a
    flight recorder armed, whose ring is the scheduler decision log. *)

open Reflex_telemetry

type tenant_row = {
  tr_tenant : int;
  tr_class : string;  (** "LC" or "BE" *)
  tr_achieved_kiops : float;
  tr_p95_read_us : float;
}

type result = { telemetry : Telemetry.t; rows : tenant_row list }

val run : ?mode:Common.mode -> unit -> result
val to_table : tenant_row list -> Reflex_stats.Table.t

(** The telemetry debrief of one world, each report after a blank line:
    per-request latency breakdowns, component aggregates, the SLO audit,
    the scheduler decision log and the final metrics. *)
val reports : Telemetry.t -> string

(** The tenant table followed by {!reports}: what [reflex_sim trace]
    prints before its export lines. *)
val render_result : result -> string
