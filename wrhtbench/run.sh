#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is run
# from, then runs it with the given flags:
#
#   bash wrhtbench/run.sh --workload design-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build files,
# Go's own configuration and the binary stay under .bench_build/, and reports
# and span files go to .bench_out/, both in the working directory, so nothing
# outside the checkout is written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/wrhtbench" build -o "$build/wrhtbench" .
exec "$build/wrhtbench" "$@"
