#!/bin/sh
# Build the benchmark from the checkout's sources, then run it:
#   sh eibench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from a checkout of the repository (lib/ and dune-project missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./eibench/ei_bench.exe >&2
exec ./.bench_build/default/eibench/ei_bench.exe "$@"
