#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), so the checkout is the
# only place touched.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -out "$out" "$@"
