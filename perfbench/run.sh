#!/bin/sh
# Build the daemon CLI and the benchmark from source, then run one
# workload from the repository root:
#
#   sh perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr so the last line of stdout stays the
# JSON result.  A checkout without the repository sources fails the
# build and exits non-zero without printing a result.
set -e
dune build --root . bin/shades_cli.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
