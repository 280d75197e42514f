#!/bin/bash
# Builds the benchmark driver inside the checkout and runs it from this
# directory. The Go build cache and the go command's per-user files
# (telemetry counters) are kept under .build/ too, so nothing outside the
# checkout is written. Arguments pass through; see main.go.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .build
export GOCACHE="$PWD/.build/gocache" XDG_CONFIG_HOME="$PWD/.build/config"
go build -o .build/bench .
exec .build/bench "$@"
