#!/usr/bin/env bash
# Builds relserve, relfleet and the load generator from the checkout this
# is run in, then runs one benchmark workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload predict-paper --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/relserve" || ! -d "$root/cmd/relfleet" ]]; then
	echo "perfbench: run from the root of a socrel checkout (go.mod, cmd/relserve, cmd/relfleet)" >&2
	exit 2
fi

out="$root/.bench_build/socrel"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off GOTELEMETRY=off

go build -o "$out/bin/relserve" ./cmd/relserve
go build -o "$out/bin/relfleet" ./cmd/relfleet
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" --bin "$out/bin" --spans "$out/spans" "$@"
