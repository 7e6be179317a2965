#!/usr/bin/env bash
# Builds the benchmark from source and runs it in its own directory, bench/.
# Binary, Go build cache and the go command's own counters go to .bench_build/
# at the root of the checkout, so nothing is written outside it; the module
# has no dependency outside this tree, so nothing is downloaded.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/ocd-bench" .
exec "$build/ocd-bench" "$@"
