#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments go to
# perfbench/src/main.ml (see the usage there).  `run.sh --selftest`
# runs the benchmark's own tests instead.  Run from the repository root.
#
# The benchmark is a dune project of its own (perfbench/dune-project).
# It links the simulator's libraries, which are private to the `atum`
# project, so it is built in a workspace under .bench_build that links
# the simulator's lib/ and the benchmark's src/ side by side (plus
# BENCHMARK.json, which the tests read).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
if [ ! -d lib ] || [ ! -f perfbench/dune-project ]; then
  echo "perfbench: run from a checkout of the repository (lib/ not found)" >&2
  exit 3
fi
ws=.bench_build/perfbench
mkdir -p "$ws"
ln -sfn "$root/perfbench/dune-project" "$ws/dune-project"
ln -sfn "$root/lib" "$ws/lib"
ln -sfn "$root/perfbench/src" "$ws/perfbench"
ln -sfn "$root/BENCHMARK.json" "$ws/BENCHMARK.json"
if [ "${1-}" = "--selftest" ]; then
  exec dune test --root "$ws" --cache=disabled --display quiet
fi
dune build --root "$ws" --cache=disabled --display quiet ./perfbench/main.exe 1>&2
exec "$ws/_build/default/perfbench/main.exe" "$@"
