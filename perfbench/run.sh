#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the repository root; arguments pass through:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, reports and spans all go under
# .bench_build/perfbench, so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -buildvcs=false -o "$out/perfbench" . >&2

# Results are stamped with the commit (when the checkout is a git
# repository) and a digest of the Go sources (always).
digest="$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
rev=nogit
if [ -d .git ]; then
	rev="$(git rev-parse --short=12 HEAD 2>/dev/null || echo nogit)"
fi
export BENCH_COMMIT="$rev+src.$digest"

exec "$out/perfbench" --out "$out" "$@"
