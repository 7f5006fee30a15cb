#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it from the checkout's root with the arguments given:
#
#   bash perfbench/run.sh --workload clugp-web-k256 --seed 1 --seconds 40 --trace 0
#
# The Go build cache, the binary and the run's scratch files all stay under
# .bench_build/ in the checkout; nothing is fetched over the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
