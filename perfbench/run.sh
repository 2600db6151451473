#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 20 --trace 0
#
# Every file the toolchain and the benchmark write stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
