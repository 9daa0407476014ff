#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload analytic --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare <base-records-dir> <new-records-dir>
# Every build and run artefact stays under .bench_build/ in the current
# directory, which must be the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home"
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d "$root/.git" ] && command -v git >/dev/null; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
