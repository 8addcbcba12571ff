#!/usr/bin/env bash
# Builds the perfbench command from source and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload ingest-rand --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, journals and span files all live
# under .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
