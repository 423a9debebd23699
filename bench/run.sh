#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the benchmark (see doc.go). Build products and the Go build
# cache stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
# Keep everything the go command writes (build cache, module cache, telemetry
# counters) inside the checkout, and read no user-level go configuration.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/mpid-bench" .
exec "$build/mpid-bench" "$@"
