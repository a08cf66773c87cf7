#!/usr/bin/env bash
# Builds the offload benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --summarize   # run-to-run spread of the results so far
#
# Everything the build and the runs write stays under .bench_build/ at the
# root of the checkout: the Go build cache, temporary files, the binary,
# and the result and span files (.bench_build/perfbench/results).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
unset GOOS GOARCH CGO_ENABLED

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/results" "$@"
