#!/usr/bin/env bash
# Builds STMaker and the benchmark from this checkout's sources, runs the
# benchmark's arithmetic tests, then runs one workload:
#
#   bash perfbench/run.sh --workload summarize|retrieve|reload \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Everything is written inside the checkout: the build tree
# ($CARGO_TARGET_DIR, default .bench_build), .bench_work and .bench_out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target stmaker_cli perfbench perfbench_test \
  -j 4 >&2
"$build/perfbench_test" >&2
exec "$build/perfbench" --root "$root" --cli "$build/tools/stmaker_cli" "$@"
