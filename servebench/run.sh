#!/usr/bin/env bash
# Builds cstserved and the servebench program from the source tree this
# script sits in, then runs one benchmark. Run from the repository root:
#
#   bash servebench/run.sh --workload pair-burst --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and span dump stays under .bench_build/ in
# the repository root. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root" && go build -o "$out/bin/cstserved" ./cmd/cstserved) >&2
(cd "$root/servebench" && go build -o "$out/bin/servebench" .) >&2
exec "$out/bin/servebench" -server "$out/bin/cstserved" -out "$out" "$@"
