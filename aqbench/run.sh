#!/usr/bin/env bash
# Builds aqbench from source and runs it with the given flags.
# Run from the repository root:
#
#   bash aqbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (Go build cache, binary) goes under the build
# directory inside the checkout: $CARGO_TARGET_DIR when set, else
# .bench_build. Nothing outside the checkout is read or written.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f aqbench/go.mod ]; then
	echo "aqbench: run from the root of a full repository checkout" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

(cd aqbench && go build -o "$build/aqbench" .)
exec "$build/aqbench" "$@"
