#!/usr/bin/env bash
# run.sh — build the repository's benchmark and the daemons it drives from
# source, then run it. Run from the repository root:
#
#   bash perfbench/run.sh --workload prove --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binaries, scratch stores and the span files of traced runs.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/experimentd" ]]; then
  echo "perfbench: run from the repository root (no go.mod / cmd/ here)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOPROXY=off
export GOTELEMETRY=off

go build -o "$build/bin/" ./cmd/stored ./cmd/experimentd
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
