#!/bin/sh
# Build the session benchmark from source, then run it with the given
# arguments (see main.ml). Run from anywhere; paths are resolved from
# the repository root. Build output goes to stderr.
set -eu
cd "$(dirname "$0")/.."
dune build --root . ./sessionbench/main.exe 1>&2
# Record the commit only when this directory is itself a git checkout.
if [ "$(git rev-parse --show-toplevel 2>/dev/null || true)" = "$(pwd -P)" ]; then
  SESSIONBENCH_COMMIT=$(git rev-parse HEAD)
  export SESSIONBENCH_COMMIT
fi
exec ./_build/default/sessionbench/main.exe "$@"
