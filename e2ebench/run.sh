#!/usr/bin/env bash
# Builds the end-to-end benchmark and the vnfoptd daemon from the
# checkout it is run in, then runs the benchmark. Run it from the
# repository root; every argument is passed on, e.g.
#
#   bash e2ebench/run.sh --workload day-tom --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the daemon's state stay inside
# the checkout, under $CARGO_TARGET_DIR when it is set and .bench_build
# otherwise.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/vnfoptd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/vnfoptd and e2ebench/)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp"
out="$(cd "$out" && pwd)"

# Everything the go command writes (build cache, temporary files, module
# cache, telemetry under the user config directory) goes under $out; the
# build needs no network and no module beyond the repository itself.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/bin/vnfoptd" ./cmd/vnfoptd
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" --daemon "$out/bin/vnfoptd" --workdir "$out/e2ebench" "$@"
