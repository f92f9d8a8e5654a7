#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload ingest-days --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, the WAL scratch directories and the
# span dumps all live under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C servebench build -o "$out/bin/servebench" .
exec "$out/bin/servebench" "$@"
