#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload uk2002 --seed 1 --seconds 36 --trace 0
#   bash perfbench/run.sh steady --runs 5
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ "${1:-}" = steady ]; then
	shift
	exec "$build/perfbench" steady --work "$build" "$@"
fi
exec "$build/perfbench" --work "$build" "$@"
