#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it
# with every argument passed through (see perfbench/README.md):
#   bash perfbench/run.sh --workload read_sweep --seed 1 --seconds 30 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
# The dune cache stays off so the build writes nothing outside _build/.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/run.exe >&2
exec ./_build/default/perfbench/run.exe "$@"
