#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build pipebench from source into
# .bench_build/ under the current directory (the checkout root) and run it
# with the caller's arguments. Everything the build and the run leave behind
# stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/pipebench" .) >&2
exec "$out/pipebench" "$@"
