#!/usr/bin/env bash
# Builds bench/unxbench from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload leak-channel --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh compare runs/a/*.json -- runs/b/*.json
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build and module caches, temporary files,
# the binary, the Go command's own telemetry counters and the traced
# runs' CPU profiles.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

go build -C "$root/bench" -o "$build/unxbench" ./unxbench
cd "$root"
exec "$build/unxbench" "$@"
