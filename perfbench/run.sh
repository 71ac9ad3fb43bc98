#!/usr/bin/env bash
# Builds aiqld and the benchmark program from the checkout this is run in,
# then runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 12 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/ in the
# checkout. Outside a full checkout the script exits non-zero before it
# builds or prints anything.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/aiqld" ]]; then
	echo "perfbench: run from the root of a full aiql checkout (no go.mod or cmd/aiqld here)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/run"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0
# The build needs nothing from the network.
export GOPROXY=off
export GOSUMDB=off
# With telemetry on, the go command starts a detached child process (once a
# day per config directory, so on every fresh checkout) that outlives the
# build; the mode file turns it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/aiqld" ./cmd/aiqld >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -aiqld "$build/bin/aiqld" -workdir "$build/run" "$@"
