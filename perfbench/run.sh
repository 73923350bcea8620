#!/bin/sh
# Builds the msccl CLI and the benchmark (perfbench/main.ml) from source,
# then runs the benchmark with the given arguments, e.g.
#   sh perfbench/run.sh --workload ring256-file --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full source checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --profile release \
  ./bin/msccl_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
