#!/usr/bin/env bash
# Builds the benchmark and runs it. Everything the build leaves behind, the
# Go build cache included, stays in .bench_build at the root of the checkout.
# The arguments are the benchmark's own; see README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -C "$root/bench" -o "$build/shardbench" .
exec "$build/shardbench" -out "$build/out" "$@"
