# Developer entry points.  `make check` is the CI gate: full build, the
# reflex-lint static-analysis pass (determinism, domain-safety,
# guard-discipline, interface hygiene — zero findings required), `dune
# runtest` (the alcotest/qcheck suites: every check there is
# deterministic, including byte identity: the rerun and --jobs 2 legs,
# and the one pin table test/pins.md5; and the exact allocation gates,
# the *.alloc cases), the scenario smoke (the chaos, monitor, obs and
# rack acceptance checks, each scenario run once, and Table 2's claim
# rows through `reflex_sim run table2`), and then `make
# host-gate` (the wall-clock floors and overhead budgets), last because
# machine load can move it and a failure there should not skip the
# deterministic checks before it.  Figures are `reflex_sim run <id>|all`; host-cost measurement
# is `bash perfbench/run.sh`.

.PHONY: all build test lint alloc-gate host-gate smoke check trace chaos monitor obs rack clean

all: build

build:
	dune build

test: build
	dune runtest

# Determinism / domain-safety / guard-discipline / interface gate:
# reflex-lint runs its per-file rules over lib/ and bin/ against
# lint.manifest and fails on any finding.  The JSON report is kept for
# the CI artifacts.
lint: build
	dune exec bin/reflex_lint.exe -- --root . --json _build/lint.json

# The allocation gates in the release profile, whose cross-module
# inlining allocates differently; `dune runtest` runs them in the dev
# profile.  Each is an exact Gc.minor_words count, held at the count
# measured in its profile (one more word per operation fails it), and
# together they are the one allocation check on the request path:
#   qos.alloc       0 words per Algorithm-1 round, at 20 and 2564 tenants
#   engine.alloc    words per posted Sim event and per 1KB Fabric.transmit;
#                   0 over 10,000 Prng.int draws
#   net.alloc       words per Tcp_conn message, send to the receiving
#                   handler
#   flash.alloc     words per 4KB queue-pair read and write, submit
#                   through drain
#   core.alloc      0 over 10,000 Server counter lookups; words per
#                   request through one dataplane thread, unarmed and
#                   with telemetry, stage sink and flight recorder armed;
#                   words per read through Client_lib against a Server
#   stats.alloc     0 over 10,000 Hdr_histogram records, int64 and int
#   obs.alloc       0 over 10,000 armed Flight records
#   rack_obs.alloc  the rack tracer's words per read (armed minus inert)
# The release build replaces the dev one in _build/, so the next dev
# build recompiles.
alloc-gate:
	dune exec --profile release test/test_main.exe -- test '.*\.alloc'

# Host-time gates (test/host_gate.ml lists them): wall-clock floors and
# overhead budgets, kept out of `dune runtest` because machine load moves
# them.  Exits 1 naming the failed gate.  The first line is the lib/ and
# test/ OCaml line count, for the code-size trend in the CI log.
host-gate: build
	@echo "lines: lib $$(cat $$(find lib -name '*.ml' -o -name '*.mli') | wc -l), test $$(cat $$(find test -name '*.ml' -o -name '*.mli') | wc -l)"
	dune exec test/host_gate.exe

# Scenario acceptance: chaos (SLO held, retries bounded), monitor (alerts
# inside fault windows, clean runs silent), obs (alert-triggered forensic
# dump names its alert and fault) and rack (policy bakeoff, migration,
# hop-delta tiling, ingress blamed on the congested link), each run once,
# then `run table2` (the access-path ordering, the +21us band and the
# paper's cells: the CLI's claim rows and exit code end to end, well
# under a second).  reflex_sim exits non-zero when any acceptance check
# fails.  The same
# runs also write every exporter's output under _build/ (request traces,
# the flight dump's Chrome view and JSON debrief, the rack trace) for
# CI's archive.  Byte identity is checked in `dune runtest`: the rerun
# and --jobs 2 legs, and the pin table test/pins.md5.
smoke: build
	dune exec bin/reflex_sim.exe -- chaos > _build/smoke_chaos.out
	dune exec bin/reflex_sim.exe -- monitor --trace-out _build/smoke_monitor_trace.json > _build/smoke_monitor.out
	dune exec bin/reflex_sim.exe -- obs --flight-dump _build/smoke_obs_flight.json --dump-json _build/smoke_obs_dump.json > _build/smoke_obs.out
	dune exec bin/reflex_sim.exe -- rack --trace-out _build/smoke_rack_trace.json > _build/smoke_rack.out
	dune exec bin/reflex_sim.exe -- trace --out _build/smoke_trace.json > _build/smoke_trace.out
	dune exec bin/reflex_sim.exe -- run table2 > _build/smoke_table2.out
	@echo "smoke OK: chaos, monitor, obs, rack and table2 acceptance checks pass"

check: build
	$(MAKE) lint
	dune runtest
	$(MAKE) smoke
	$(MAKE) host-gate

# Canonical telemetry scenario: per-request latency breakdowns, SLO
# audit, scheduler decision log (read off the flight ring), Chrome trace
# JSON.
trace: build
	dune exec bin/reflex_sim.exe -- trace

# Full chaos scenario: bucket table, fault-window report and SLO audit.
chaos: build
	dune exec bin/reflex_sim.exe -- chaos

# Full monitoring scenario: alert debrief, budgets, remediation log.
monitor: build
	dune exec bin/reflex_sim.exe -- monitor

# Observability scenario: flight-recorder dumps, retry span trees,
# cost profile.
obs: build
	dune exec bin/reflex_sim.exe -- obs

# Rack-scale scenario: policy bakeoff, migration leg, tracing legs.
rack: build
	dune exec bin/reflex_sim.exe -- rack

clean:
	dune clean
