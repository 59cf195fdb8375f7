#!/bin/sh
# Build the program and the benchmark from source, then run one
# benchmark workload.  Run from the repository root:
#   sh perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the result JSON.
set -e
build_dir=.bench_build
DUNE_CACHE=disabled dune build --root . --build-dir "$build_dir" \
  --profile release perfbench/main.exe bin/serve.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" \
  --server "$build_dir/default/bin/serve.exe" "$@"
