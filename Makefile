# Developer entry points.  `make check` is the CI gate: full build, the
# reflex-lint static-analysis pass (determinism, domain-safety,
# guard-discipline, hot-path allocations, interface hygiene — zero
# findings required), `dune runtest` (the alcotest/qcheck suites: every
# check there is deterministic, including byte identity: the rerun and
# --jobs 2 legs, and the one pin table test/pins.md5), `make host-gate`
# (the wall-clock floors and overhead budgets), and the scenario smoke
# (the chaos, monitor, obs and rack acceptance checks, each scenario run
# once).  Figures are `reflex_sim run <id>|all`; host-cost measurement
# is `bash perfbench/run.sh`.

.PHONY: all build test lint alloc-gate host-gate smoke check trace chaos monitor obs rack clean

all: build

build:
	dune build

test: build
	dune runtest

# Determinism / domain-safety / hot-path-allocation gate: reflex-lint
# scans lib/ and bin/ against lint.manifest, runs the
# interprocedural passes over the cross-module call graph, and fails on
# any finding.  The JSON report and the call graph are kept for the CI
# artifacts.
lint: build
	dune exec bin/reflex_lint.exe -- --root . --json _build/lint.json --callgraph-out _build/callgraph.json

# The allocation gates in the release profile, whose cross-module
# inlining allocates differently; `dune runtest` runs them in the dev
# profile.  qos.alloc (test_qos.ml): words per Algorithm-1 round
# independent of the tenant count, at most 20.  engine.alloc
# (test_engine.ml): at most 3.1 words per posted Sim event and 40 per
# 1KB Fabric.transmit, and 0 words over 10,000 Prng.int draws.
# flash.alloc (test_flash.ml): at most 14 words per 4KB queue-pair read,
# submit through drain.  core.alloc (test_core.ml): 0 words over 10,000
# Server.tenant_completed and deficit_notifications lookups, and at most
# 30.04 words per request through one dataplane thread.  The release
# build replaces the dev one in _build/, so the next dev build recompiles.
alloc-gate:
	dune exec --profile release test/test_main.exe -- test '(qos|engine|flash|core).alloc'

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
# hop-delta tiling, ingress blamed on the congested link), each run once.
# reflex_sim exits non-zero when any acceptance check fails.  The same
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
	@echo "smoke OK: chaos, monitor, obs and rack acceptance checks pass"

check: build
	$(MAKE) lint
	dune runtest
	$(MAKE) host-gate
	$(MAKE) smoke

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
