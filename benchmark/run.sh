#!/usr/bin/env bash
# Driver entry point: build the benchmark from source into .bench_build/
# and run it with the driver's arguments. Run from the repository root.
# Everything the toolchain writes — build cache, temporary files, its
# own configuration — is pointed inside .bench_build/, so nothing lands
# outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
