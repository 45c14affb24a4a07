#!/bin/sh
# Build the checker and the benchmark from source, then run the benchmark.
# Run from the root of a checkout:
#   sh perfbench/run.sh --workload cold --seed 1 --seconds 40 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d bin ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full checkout of the repository" >&2
  exit 2
fi
# keep every file the build and the run write inside the checkout
export DUNE_CACHE=disabled
mkdir -p _perfbench/tmp
TMPDIR="$(pwd)/_perfbench/tmp"
export TMPDIR
dune build ./bin/dmlc.exe ./bin/dmld.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
