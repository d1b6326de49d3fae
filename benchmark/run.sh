#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root:
#   bash benchmark/run.sh --workload kv-fsync --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
