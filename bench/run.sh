#!/bin/bash
# Builds scorebench from source and runs it with the given arguments,
# from the root of the checkout. Everything the Go toolchain writes
# (build cache, module cache, its own configuration) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/scorebench" ./scorebench
exec "$build/scorebench" "$@"
