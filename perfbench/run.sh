#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's scratch files all stay
# under the build directory ($CARGO_TARGET_DIR, default .bench_build), so a
# run writes nothing outside the checkout.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$(pwd)/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
