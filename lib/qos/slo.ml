type tenant_class = Latency_critical | Best_effort

type t = { klass : tenant_class; latency_us : int; iops : float; read_pct : int }

let check_read_pct read_pct =
  if read_pct < 0 || read_pct > 100 then invalid_arg "Slo: read_pct must be in 0..100"

let latency_critical ~latency_us ~iops ~read_pct =
  if latency_us <= 0 then invalid_arg "Slo.latency_critical: non-positive latency";
  if iops <= 0.0 then invalid_arg "Slo.latency_critical: non-positive IOPS";
  check_read_pct read_pct;
  { klass = Latency_critical; latency_us; iops; read_pct }

let best_effort ?(read_pct = 100) () =
  check_read_pct read_pct;
  { klass = Best_effort; latency_us = 0; iops = 0.0; read_pct }

let is_latency_critical t = t.klass = Latency_critical
let read_ratio t = float_of_int t.read_pct /. 100.0
