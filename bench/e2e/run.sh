#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it, from the root of
# an autonet checkout:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# --trace 0 is the untraced measurement (the end-to-end metrics),
# --trace 1 the layer-attributed traced run (the per-layer metrics).  The
# last line of standard output is the JSON result; build output goes to
# standard error.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/dune ]; then
  echo "e2e: run this from the root of an autonet source checkout" >&2
  exit 2
fi

# Everything the build writes stays in the checkout's _build.
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe 1>&2

exec ./_build/default/bench/e2e/e2e.exe run "$@"
