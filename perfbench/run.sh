#!/usr/bin/env bash
# Builds the socket-level benchmark plus the nevermindd and nevermindgw
# binaries it drives, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh -workload desk -seed 1 -seconds 15 -trace 0
#
# Everything the build writes (Go build cache, temp files, binaries, model
# files, WAL directories) stays under .bench_build/ in the repository root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" || ! -d "$root/cmd/nevermindd" ]]; then
    echo "perfbench: run from the root of a nevermind checkout" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/" ./cmd/nevermindd ./cmd/nevermindgw
go build -C perfbench -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
