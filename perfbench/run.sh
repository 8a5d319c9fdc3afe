#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments; see main.go for the flags. Every file
# the build and the run write stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

# The binary is keyed by a hash of every Go source and module file, so a
# run rebuilds only when the code changed.
key=$(find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	\( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
bin=$out/perfbench-$key
if [ ! -x "$bin" ]; then
	(cd perfbench && go build -o "$bin.tmp" .) >&2
	mv "$bin.tmp" "$bin"
fi
exec "$bin" "$@"
