#!/usr/bin/env bash
# Deterministic chaos sweep: drive the seeded chaos harness (tools/chaos)
# against `stmaker_cli serve` across many seeds. Each seed derives a fixed
# schedule of failpoint arming, SIGHUP floods, malformed lines, deadline
# storms, and reload requests (good, bad, and in-place) under open-loop
# load, and checks the lifecycle invariants: no crash, exactly one reply
# per accepted request, model_version never torn, rollback on injected
# corruption, SIGTERM drain exit 0. A failing seed prints the exact repro
# command plus the kept server stderr path. The sweep runs over the CSV
# model prefix, then over the packed binary container — with a truncated
# container as the bad-reload target, and once with a container whose
# corpus-samples payload has one flipped byte — so the mmap-backed
# snapshot path faces the same storms as the heap-backed one.
# Registered with ctest; $1 = chaos binary, $2 = stmaker_cli binary.
set -euo pipefail

CHAOS="$1"
CLI="$2"
SEEDS="${STMAKER_CHAOS_SEEDS:-1 2 3 4 5 6 7 8}"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen + train =="
serve_world

echo "== stage a corrupt model (truncated manifest-covered section) =="
BAD="$DIR/badmodel"
for f in "$DIR"/model_*.csv; do
  cp "$f" "$DIR/badmodel${f#"$DIR"/model}"
done
head -c 64 "$DIR/model_feature_map.csv" > "$BAD"_feature_map.csv

FAILED=()
for seed in $SEEDS; do
  echo "== chaos seed $seed =="
  # 40 qps stays well inside capacity even on a TSan build (the point is
  # lifecycle invariants under faults, not saturation — the SLO bench owns
  # that); the loadgen leg must see zero unanswered requests.
  if ! "$CHAOS" --cli "$CLI" --dir "$DIR" --model "$DIR/model" \
       --bad_model "$BAD" --seed "$seed" --duration_s 2 --qps 40; then
    FAILED+=("$seed")
  fi
done

echo "== pack the model into a binary container + stage a corrupt one =="
"$CLI" pack --dir "$DIR" --model "$DIR/model" --out "$DIR/model.stm"
# Truncation is guaranteed corruption: the header's file_bytes no longer
# matches, so MappedContainer::Open rejects the candidate outright.
head -c 3000 "$DIR/model.stm" > "$DIR/badmodel.stm"

# Copies container $1 to $3 with one byte flipped in the middle of the
# payload of the first section of type $2 (docs/FORMAT.md §3: the table
# starts at byte 64, 64 bytes per entry: type at +0, offset at +16, bytes
# at +24). Header and table stay intact.
flip_section_byte() {
  local count i type offset bytes at old
  count=$(od -An -t u4 -j 16 -N 4 "$1" | tr -d ' ')
  for ((i = 0; i < count; i++)); do
    type=$(od -An -t u4 -j $((64 + 64 * i)) -N 4 "$1" | tr -d ' ')
    [[ "$type" == "$2" ]] || continue
    offset=$(od -An -t u8 -j $((64 + 64 * i + 16)) -N 8 "$1" | tr -d ' ')
    bytes=$(od -An -t u8 -j $((64 + 64 * i + 24)) -N 8 "$1" | tr -d ' ')
    at=$((offset + bytes / 2))
    old=$(od -An -t u1 -j "$at" -N 1 "$1" | tr -d ' ')
    cp "$1" "$3"
    # shellcheck disable=SC2059  # the format is the escaped byte
    printf "$(printf '\\%03o' $((old ^ 0x40)))" |
      dd of="$3" bs=1 seek="$at" conv=notrunc status=none
    return 0
  done
  echo "no section of type $2 in $1" >&2
  return 1
}
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

CSEEDS="${STMAKER_CHAOS_CONTAINER_SEEDS:-21 22 23}"
for seed in $CSEEDS; do
  echo "== chaos (container model) seed $seed =="
  # Same invariants over container-backed snapshots (docs/FORMAT.md): a
  # reload rejected on the truncated container must leave the old snapshot
  # serving off its still-mapped file, and a schedule that arms the
  # container/map failpoint must degrade to the heap-read fallback —
  # never a torn snapshot, never a crash.
  if ! "$CHAOS" --cli "$CLI" --dir "$DIR" --model "$DIR/model.stm" \
       --bad_model "$DIR/badmodel.stm" --seed "$seed" --duration_s 2 \
       --qps 40; then
    FAILED+=("container:$seed")
  fi
done

CORPUS_SEEDS="${STMAKER_CHAOS_CORPUS_SEEDS:-24}"
for seed in $CORPUS_SEEDS; do
  echo "== chaos (container model, damaged corpus reload) seed $seed =="
  if ! "$CHAOS" --cli "$CLI" --dir "$DIR" --model "$DIR/model.stm" \
       --bad_model "$DIR/badsamples.stm" --seed "$seed" --duration_s 2 \
       --qps 40; then
    FAILED+=("corpus:$seed")
  fi
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAIL: chaos seeds ${FAILED[*]} failed."
  echo "Repro a single seed outside ctest with:"
  for seed in "${FAILED[@]}"; do
    echo "  $CHAOS --cli $CLI --dir <datadir> --model <datadir>/model" \
         "--bad_model <corrupt-prefix> --seed $seed"
  done
  echo "(regenerate <datadir> with: $CLI gen --dir <datadir> --seed 5" \
       "--blocks 10 --trips 80 --pois 100 && $CLI train --dir <datadir>" \
       "--model <datadir>/model; container: seeds prefixed 'container:'" \
       "ran against <datadir>/model.stm from $CLI pack, seeds prefixed" \
       "'corpus:' with <datadir>/badsamples.stm as --bad_model)"
  exit 1
fi

echo "PASS"
