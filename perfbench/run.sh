#!/bin/sh
# Build the colring benchmark from this checkout and run it.
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# runs one workload in its own process (see perfbench/README.md);
# --workload all runs every workload, one process each, in turn.
# Run it from the root of a colring checkout: it builds the library
# and perfbench/ from source with dune, into _build/ there.
set -u

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d perfbench ]; then
  echo "colbench: run from the root of a colring checkout" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
if ! dune build --root . --display quiet ./perfbench/colbench_main.exe >&2; then
  echo "colbench: build failed" >&2
  exit 3
fi
exe=./_build/default/perfbench/colbench_main.exe

COLBENCH_COMMIT=unknown
if [ -d .git ]; then
  COLBENCH_COMMIT=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
export COLBENCH_COMMIT

if [ "${1-}" = "--workload" ] && [ "${2-}" = "all" ]; then
  shift 2
  status=0
  for w in elect-fifo elect-random serve-closed check-exhaustive; do
    "$exe" --workload "$w" "$@" || status=1
  done
  exit $status
fi
exec "$exe" "$@"
