#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload figs_quick [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/run.sh --compare old.json new.json
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files and the binary.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local

# -trimpath makes the profile's file names module-relative, which is what the
# file-to-layer table in profile.go matches.
(cd "$root/bench" && go build -trimpath -o "$out/mlidbench" .)
exec "$out/mlidbench" "$@"
