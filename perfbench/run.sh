#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives from this checkout's
# sources, then runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload local-walk --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and per-run state stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
bin="$out/bin"
mkdir -p "$bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
  GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

# Rebuild when any Go source or module file is newer than the binaries.
stamp="$bin/.built"
if [ ! -f "$stamp" ] || [ -n "$(find "$root" -path "$out" -prune -o \
    \( -name '*.go' -o -name 'go.mod' \) -newer "$stamp" -print -quit)" ]; then
  go -C "$root/perfbench" build -o "$bin/" . hdsampler/cmd/hiddendbd hdsampler/cmd/hdsamplerd >&2
  touch "$stamp"
fi

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$bin/perfbench" -commit "$commit" -bin "$bin" -state "$out/perfbench" "$@"
