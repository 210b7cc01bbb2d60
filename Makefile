# Developer entry points.  `make check` is the CI gate: full build, the
# reflex-lint static-analysis pass (determinism, domain-safety,
# guard-discipline, hot-path allocations, interface hygiene — zero
# findings required), `dune runtest` (the alcotest/qcheck suites: every
# check there is deterministic), `make host-gate` (the wall-clock floors
# and overhead budgets), and the scenario smoke (chaos, monitor, obs and
# rack acceptance checks plus their same-seed rerun and --jobs 2
# byte-identity checks).  Figures are `reflex_sim run <id>|all`; host-cost
# measurement is `bash perfbench/run.sh`.

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

# The scheduler-round allocation gate (test_qos.ml's qos.alloc case:
# words per Algorithm-1 round independent of the tenant count, at most
# 20) in the release profile, whose cross-module inlining allocates
# differently; `dune runtest` runs it in the dev profile.  The release
# build replaces the dev one in _build/, so the next dev build recompiles.
alloc-gate:
	dune exec --profile release test/test_main.exe -- test qos.alloc

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
# hop-delta tiling, ingress blamed on the congested link), each verified
# byte-identical across a same-seed rerun and serial vs --jobs 2.
# reflex_sim exits non-zero when any check fails.  The same runs also
# write every exporter's output under _build/ (request traces, the flight
# dump's Chrome view and JSON debrief, the rack trace) so each writer runs
# on every check, and `md5sum -c smoke.md5` holds those five JSON exports
# and the five deterministic text renders (chaos, monitor, rack and trace
# stdout, plus smoke_obs_render.out: the obs stdout cut before its
# host-wall-time `== cost profile` table) to their checked-in digests, so
# a change that moves one byte fails here.  A change that alters one on
# purpose regenerates smoke.md5.
smoke: build
	dune exec bin/reflex_sim.exe -- chaos > _build/smoke_chaos.out
	dune exec bin/reflex_sim.exe -- monitor --trace-out _build/smoke_monitor_trace.json > _build/smoke_monitor.out
	dune exec bin/reflex_sim.exe -- obs --flight-dump _build/smoke_obs_flight.json --dump-json _build/smoke_obs_dump.json > _build/smoke_obs.out
	sed '/^== cost profile/,$$d' _build/smoke_obs.out > _build/smoke_obs_render.out
	dune exec bin/reflex_sim.exe -- rack --trace-out _build/smoke_rack_trace.json > _build/smoke_rack.out
	dune exec bin/reflex_sim.exe -- trace --out _build/smoke_trace.json > _build/smoke_trace.out
	md5sum -c smoke.md5
	@echo "smoke OK: chaos, monitor, obs and rack checks pass; exports and renders match smoke.md5"

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

# Full chaos scenario with determinism debrief and SLO audit.
chaos: build
	dune exec bin/reflex_sim.exe -- chaos

# Full monitoring scenario: alert debrief, budgets, remediation log.
monitor: build
	dune exec bin/reflex_sim.exe -- monitor

# Observability scenario: flight-recorder dumps, retry span trees,
# dump-determinism debrief, cost profile.
obs: build
	dune exec bin/reflex_sim.exe -- obs

# Rack-scale scenario: policy bakeoff, migration leg, determinism debrief.
rack: build
	dune exec bin/reflex_sim.exe -- rack

clean:
	dune clean
