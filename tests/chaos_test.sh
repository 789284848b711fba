#!/usr/bin/env bash
# Deterministic chaos sweep: drive the seeded chaos harness (tools/chaos)
# against `stmaker_cli serve` across many seeds. Each seed derives a fixed
# schedule of failpoint arming, SIGHUP floods, malformed lines, deadline
# storms, and reload requests (good, bad, and in-place) under open-loop
# load, and checks the lifecycle invariants: no crash, exactly one reply
# per accepted request, model_version never torn, rollback on injected
# corruption, SIGTERM drain exit 0. The sweep serves the model container
# from `train`, with a truncated container as the bad-reload target, and
# once more with a container whose corpus-samples payload has one flipped
# byte. A failing seed prints the exact repro command plus the kept server
# stderr path. Registered with ctest; $1 = chaos binary, $2 = stmaker_cli
# binary.
set -euo pipefail

CHAOS="$1"
CLI="$2"
SEEDS="${STMAKER_CHAOS_SEEDS:-1 2 3 4 5 6 7 8}"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen + train =="
serve_world

echo "== stage corrupt models =="
# Truncation is guaranteed corruption: the header's file_bytes no longer
# matches, so MappedContainer::Open rejects the candidate outright.
head -c 3000 "$DIR/model.stm" > "$DIR/badmodel.stm"
# Type 23 = kCorpusSamples: Open accepts this file, and only the section
# CRC stands between the flipped fix and the serving corpus. Prove that
# here, then use it as a bad-reload target.
flip_section_byte "$DIR/model.stm" 23 "$DIR/badsamples.stm"
if "$CLI" serve --dir "$DIR" --model "$DIR/badsamples.stm" </dev/null \
     >/dev/null 2>"$DIR/badsamples.err"; then
  echo "FAIL: serve started on a container with a damaged corpus section"
  exit 1
fi
if ! grep -q "section 'corpus-samples' CRC32 mismatch" "$DIR/badsamples.err"; then
  echo "FAIL: damaged corpus section was not rejected by its CRC:"
  cat "$DIR/badsamples.err"
  exit 1
fi

FAILED=()
run_seed() {  # run_seed <label> <seed> <bad-model>
  echo "== chaos $1 seed $2 =="
  # 40 qps stays well inside capacity even on a TSan build (the point is
  # lifecycle invariants under faults, not saturation — the SLO bench owns
  # that). A reload rejected on a bad container must leave the old
  # snapshot serving off its still-mapped file, and a schedule that arms
  # the container/map failpoint must degrade to the heap-read fallback —
  # never a torn snapshot, never a crash.
  if ! "$CHAOS" --cli "$CLI" --dir "$DIR" --model "$DIR/model.stm" \
       --bad_model "$3" --seed "$2" --duration_s 2 --qps 40; then
    FAILED+=("$1:$2")
  fi
}
for seed in $SEEDS; do
  run_seed model "$seed" "$DIR/badmodel.stm"
done
for seed in ${STMAKER_CHAOS_CORPUS_SEEDS:-24}; do
  run_seed corpus "$seed" "$DIR/badsamples.stm"
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAIL: chaos seeds ${FAILED[*]} failed."
  echo "Repro a single seed outside ctest with:"
  for failed in "${FAILED[@]}"; do
    echo "  $CHAOS --cli $CLI --dir <datadir> --model <datadir>/model.stm" \
         "--bad_model <corrupt-container> --seed ${failed#*:}"
  done
  echo "(regenerate <datadir> with: $CLI gen --dir <datadir> --seed 5" \
       "--blocks 10 --trips 80 --pois 100 && $CLI train --dir <datadir>" \
       "--model <datadir>/model.stm; seeds labelled 'model:' ran against" \
       "the first 3000 bytes of model.stm, seeds labelled 'corpus:' against" \
       "a copy with one corpus-samples byte flipped)"
  exit 1
fi

echo "PASS"
