(** Observability layer: request lifecycle tracing, metrics registry,
    the scheduler decision report (over the attached flight ring), Chrome
    trace export and SLO audit.

    - {!Telemetry}: the per-world recording core (zero overhead when disabled)
    - {!Trace_export}: Chrome [trace_event] JSON + latency breakdowns
    - {!Slo_audit}: per-tenant SLO compliance and violation attribution *)

module Telemetry = Telemetry
module Trace_export = Trace_export
module Slo_audit = Slo_audit
