#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: every build and run artefact stays under .bench_build there.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"

# Finished WAL trees collect in the trash (see NOTES.md), three or four
# per ingest run. Past 96 of them (about 400 MB) the trash is emptied
# here, before the build and outside any measured window.
trash="$build/work/trash"
if [ -d "$trash" ] && [ "$(find "$trash" -mindepth 1 -maxdepth 1 | wc -l)" -gt 96 ]; then
	rm -rf "$trash"
fi

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/work" --spans "$build/spans" "$@"
