#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload commit_mix --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache, the binary and all
# scratch files stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
