#!/usr/bin/env bash
# Build archpred and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of an archpred checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./bin/archpred.exe ./perfbench/bench/main.exe \
  ./perfbench/bench/blocking.so >&2
exec ./_build/default/perfbench/bench/main.exe \
  --archpred ./_build/default/bin/archpred.exe "$@"
