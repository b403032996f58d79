#!/usr/bin/env bash
# Builds the datalog binary and the benchmark from this checkout, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/datalog" ]; then
	echo "run.sh: no datalog sources in $root; run it from the repository root" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/datalog" ./cmd/datalog >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" --datalog "$out/bin/datalog" --work "$out/work" "$@"
