(** Exporters over the telemetry span ring: Chrome [trace_event] JSON and
    plain-text per-request latency breakdowns.

    Requests are identified by [(lane, tenant, req_id)] (see
    {!Reflex_obs.Stage}).  A request is {e complete} when every stage of
    {!Reflex_obs.Stage.request_path} was stamped with monotone times; its
    seven components tile the end-to-end interval, so their sum equals
    the total latency exactly. *)

open Reflex_engine

type breakdown = {
  b_lane : int;
  b_tenant : int;
  b_req_id : int64;
  b_start : Time.t;
  b_total : Time.t;  (** end-to-end client latency *)
  b_components : Time.t array;
      (** [Stage.component_count] entries; sums to [b_total] *)
}

(** Breakdowns of the complete requests, first-seen order. *)
val breakdowns : Telemetry.t -> breakdown list

(** The top 10 requests by end-to-end latency, one line each
    with all seven components in µs. *)
val breakdown_report : Telemetry.t -> string

(** Mean / p95 / max / share per latency component over complete
    requests. *)
val component_report : Telemetry.t -> string

(** [Follows_from] links (recorded by the client when a timed-out attempt
    is re-issued under a fresh req_id) chained into per-root attempt
    sequences, capped at 20 with total/longest counts in
    the header. *)
val retry_tree_report : Telemetry.t -> string

(** Chrome [trace_event] JSON (load in [about://tracing] or Perfetto):
    one ["ph":"X"] duration event per component of each complete request
    (pid = tenant, tid = req_id), one instant event per raw span, and one
    ["cat":"fault"] duration event per injected-fault window (pid 0 /
    tid 0; windows still open at export close at the latest observed
    timestamp) so fault injections visually align with the latency spikes
    they caused.  Causal links render as flow arrows
    (["ph":"s"]/["ph":"f"] pairs, cat ["link"]) between the linked
    requests' rows, and remediation applications as cat ["remediation"]
    instants.  [extra] appends caller-rendered trace_event objects (one
    complete JSON object per element) — lib/monitor uses it for
    alert-timeline instants. *)
val to_chrome_json : ?extra:string list -> Telemetry.t -> string

(** Write {!to_chrome_json}'s bytes to a file, straight from the render
    buffer. *)
val write_chrome_json : ?extra:string list -> Telemetry.t -> string -> unit
