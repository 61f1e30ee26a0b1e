#!/usr/bin/env bash
# Builds cmd/hmtsd and the e2ebench driver from the checkout's sources,
# then runs the driver with this script's arguments. Run it from the root
# of a checkout:
#
#   bash e2ebench/run.sh --workload agg_results --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays inside the checkout:
# binaries and Go caches under .bench_build/e2ebench, run records under
# .bench_out.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hmtsd" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of an hmts checkout (needs go.mod, cmd/hmtsd and e2ebench/)" >&2
	exit 2
fi

build="$root/.bench_build/e2ebench"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/home/go" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$build/hmtsd" ./cmd/hmtsd
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --root "$root" --daemon "$build/hmtsd" "$@"
