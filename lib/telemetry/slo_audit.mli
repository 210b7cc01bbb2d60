(** SLO auditor: flags traced requests of latency-critical tenants that
    exceeded their registered SLO and attributes each violation to the
    dominant latency component ({!Reflex_obs.Stage.dominant}; the answer
    to "was the p95 outlier NIC queueing, token starvation, or die
    contention?"). *)

(** Per-tenant compliance table (complete traced requests, violations,
    worst latency, majority dominant component) plus the violation log
    bucketed into fixed 10ms windows per tenant.  When the run
    carried injected faults, each violation window is annotated with the
    fault labels active during it and the fault-window table is appended
    — the audit answers "which violations did the chaos plan cause, and
    which are the system's own".  The breakdowns are built once per call. *)
val report : Telemetry.t -> string
