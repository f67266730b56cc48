#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and runs
# it with the given arguments, from the checkout's root:
#
#   bash e2ebench/run.sh --workload table2-warm-l5 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the benchmark's outputs stay under
# .bench_build/ in the checkout. Without the repository's sources next to
# e2ebench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/e2ebench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" "$@"
