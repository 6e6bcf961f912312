#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it:
#   bash perfbench/run.sh --workload cold_batch|eco_stream|job_mix|all \
#     --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build products and traces go to
# .bench_build/; the last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
mkdir -p .bench_build
dune build --root . --build-dir "$PWD/.bench_build/dune" ./perfbench/main.exe >&2
exec .bench_build/dune/default/perfbench/main.exe "$@"
