#!/usr/bin/env bash
# Builds the load benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash loadbench/run.sh --workload point-mixed --seed 1 --seconds 20 --trace 0
# Build products, the Go build cache, the go command's temporary files and
# configuration, and the span output all stay under .bench_build/ (or
# $CARGO_TARGET_DIR) in the current directory.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/loadbench" "$out/go-tmp" "$out/config"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOTMPDIR="$out/go-tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/loadbench" && go build -o "$out/loadbench/loadbench" .) >&2
exec "$out/loadbench/loadbench" --spans "$out/loadbench" "$@"
