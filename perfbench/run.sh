#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything the build and the run
# write goes under .bench_build/ there: the Go build and module caches,
# temporary files and the binary. A checkout without the repository's
# sources fails to build, and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# One process drives the load on the 2-CPU reference machine.
export GOMAXPROCS=2

go -C perfbench build -o "$out/perfbench" .

# The machine fingerprint's code half: the commit when the checkout is a
# git repository, and always a digest of the Go sources the binary was
# built from.
PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo none)
PERFBENCH_SOURCE=sha256:$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT PERFBENCH_SOURCE

exec "$out/perfbench" "$@"
