#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Every
# file the build and the run write lands under .bench_build/perfbench at the
# root of that tree: the Go build cache, temporary files, span dumps.
#
#   bash _perfbench/run.sh --workload paper-balaidos --seed 1 --seconds 20 --trace 0
#   bash _perfbench/run.sh --workload all --seed 1
#   bash _perfbench/run.sh compare base.jsonl change.jsonl
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root does not hold the earthing module; nothing to benchmark" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

(cd "$here" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
