#!/bin/sh
# Build `diag` and the benchmark client from source, then run the client.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. The last line of stdout is the JSON
# result; build output goes to stderr.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./bin/diag.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --diag ./_build/default/bin/diag.exe "$@"
