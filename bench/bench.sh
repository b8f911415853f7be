#!/usr/bin/env bash
# bench.sh — build the benchmark from source and run one workload.
#
# Usage, from the repository root:
#   bash bench/bench.sh --workload rx-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, temp files,
# the tnbbench binary, trace-store scratch) stays under .bench_build/ in
# the current directory. The last line of standard output is the JSON
# result; see bench/README.md.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
    GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$out/tnbbench" ./tnbbench)
exec "$out/tnbbench" -tmp "$out/tmp" "$@"
