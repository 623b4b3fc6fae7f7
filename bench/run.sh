#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build leaves behind (binary, Go build cache, the go
# command's temporary and configuration files) stays in .bench_build/ at
# the root of the checkout; the run writes bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C bench -o "$build/bench" . >&2
exec "$build/bench" "$@"
