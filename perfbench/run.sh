#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload ocb-read-hot --seed 1 --seconds 10 --trace 0
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# The commit, when the checkout is a git work tree; git must not look
# above the checkout for one.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

(cd perfbench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
