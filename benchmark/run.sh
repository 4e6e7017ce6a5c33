#!/usr/bin/env bash
# Builds vmnperf (this directory) and the vmnd it drives from the checkout's
# own source, then runs vmnperf with the given arguments. Everything the
# build and the run write stays under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/vmnperf" .
go build -C "$here" -o "$out/vmnd" github.com/netverify/vmn/cmd/vmnd
exec "$out/vmnperf" -vmnd "$out/vmnd" -scratch "$out" "$@"
