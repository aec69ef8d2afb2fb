#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build leaves behind inside the checkout:
#
#   bash benchmark/run.sh -workload serve-lifecycle -seed 7 -seconds 12 -trace 0
#   bash benchmark/run.sh -seed 7 | tail -n 1 > benchmark/out/a.json   # all four, round-robin
#   bash benchmark/run.sh -check benchmark/out/a.json benchmark/out/b.json
#
# The benchmark is its own module (benchmark/go.mod) that replaces the
# repository's module with the parent directory, so it compiles the
# checkout it sits in; without that checkout around it the build fails and
# nothing is printed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/pombm-benchmark" .
cd "$root"
exec "$build/pombm-benchmark" "$@"
