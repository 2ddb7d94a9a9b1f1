#!/usr/bin/env bash
# End-to-end serving benchmark for mstserve. Run from the root of a checkout:
#
#   bash e2ebench/run.sh --workload cold-dense --seed 1 --seconds 45 --trace 0
#
# The Go build cache, the binaries, stream directories and span files all
# stay under .bench_build/ in the checkout. The last line of standard output
# is the JSON result.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -root "$root" "$@"
