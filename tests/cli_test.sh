#!/usr/bin/env bash
# End-to-end smoke test for stmaker_cli: generate a dataset, train and
# save the model container, pack (check + copy) it, summarize with and
# without the model, and run the corpus-level commands. Registered with
# ctest; $1 is the path to the stmaker_cli binary.
set -euo pipefail

CLI="$1"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen =="
"$CLI" gen --dir "$DIR" --seed 5 --blocks 10 --trips 150 --pois 120

for f in network_nodes.csv network_edges.csv pois.csv trajectories.csv; do
  [[ -s "$DIR/$f" ]] || { echo "missing $f"; exit 1; }
done

echo "== train writes one model container =="
"$CLI" train --dir "$DIR" --model "$DIR/model.stm"
[[ "$(head -c 8 "$DIR/model.stm")" == "STMKCTR1" ]] || {
  echo "model.stm does not start with the container magic"; exit 1; }
if compgen -G "$DIR/model*.csv" > /dev/null; then
  echo "train wrote CSV model files"; exit 1
fi

echo "== train --threads 4 writes an identical model =="
"$CLI" train --dir "$DIR" --model "$DIR/model_mt.stm" --threads 4
cmp "$DIR/model.stm" "$DIR/model_mt.stm" || {
  echo "model.stm differs between 1 and 4 threads"; exit 1; }

echo "== pack checks a container and copies it byte for byte =="
PACKED="$("$CLI" pack --model "$DIR/model.stm" --out "$DIR/copy.stm")"
echo "$PACKED"
cmp "$DIR/model.stm" "$DIR/copy.stm" || {
  echo "pack changed the bytes"; exit 1; }
[[ "$PACKED" == *"routing hierarchy, trajectory index"* ]] || {
  echo "pack lost the hierarchy or the trip index"; exit 1; }
rc=0; "$CLI" unpack --model "$DIR/model.stm" --out "$DIR/x" 2>/dev/null || rc=$?
[[ $rc -eq 2 ]] || {
  echo "unpack: want exit 2 (no such command), got $rc"; exit 1; }

echo "== summarize (trained inline) =="
OUT1="$("$CLI" summarize --dir "$DIR" --trip 3)"
echo "$OUT1"
[[ "$OUT1" == "The car started from"* ]] || { echo "bad summary"; exit 1; }

echo "== summarize (from model: no CSV read) =="
OUT2="$("$CLI" summarize --dir "$DIR/nonexistent" --trip 3 \
  --model "$DIR/model.stm" --k 2)"
echo "$OUT2"
[[ "$OUT2" == "The car started from"* ]] || { echo "bad summary"; exit 1; }

echo "== summarize --threads matches serial =="
OUT3="$("$CLI" summarize --dir "$DIR" --trip 3 --threads 4)"
[[ "$OUT3" == "$OUT1" ]] || { echo "--threads changed the summary"; exit 1; }

echo "== summarize --json =="
JSON="$("$CLI" summarize --trip 3 --model "$DIR/model.stm" --json)"
[[ "$JSON" == "{"* && "$JSON" == *"\"partitions\""* ]] || {
  echo "bad json"; exit 1; }

echo "== stats =="
STATS1="$("$CLI" stats --dir "$DIR" --trips 40)"
grep -q "grade_of_road" <<< "$STATS1"

echo "== stats --threads matches serial =="
STATS2="$("$CLI" stats --dir "$DIR" --trips 40 --threads 4)"
[[ "$STATS2" == "$STATS1" ]] || { echo "--threads changed stats"; exit 1; }

echo "== group =="
"$CLI" group --dir "$DIR" --from-hour 6 --to-hour 20 | grep -q "Among"

echo "== error categories map to distinct exit codes =="
# Usage errors -> 2.
rc=0; "$CLI" bogus 2>/dev/null || rc=$?
[[ $rc -eq 2 ]] || { echo "bogus command: want exit 2, got $rc"; exit 1; }

# A flag the command does not read -> 2, naming the flag, before any work:
# a retired (--router) or mistyped (--thread) flag is never ignored.
rc=0
"$CLI" train --dir "$DIR" --model "$DIR/unread.stm" --router dijkstra \
  2>"$DIR/flag.err" || rc=$?
[[ $rc -eq 2 ]] || { echo "train --router: want exit 2, got $rc"; exit 1; }
grep -q "train does not take --router$" "$DIR/flag.err" || {
  echo "error does not name --router"; cat "$DIR/flag.err"; exit 1; }
[[ ! -e "$DIR/unread.stm" ]] || { echo "train ran with --router"; exit 1; }
rc=0
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --thread 4 \
  < /dev/null > /dev/null 2>"$DIR/flag.err" || rc=$?
[[ $rc -eq 2 ]] || { echo "serve --thread: want exit 2, got $rc"; exit 1; }
grep -q "serve does not take --thread$" "$DIR/flag.err" || {
  echo "error does not name --thread"; cat "$DIR/flag.err"; exit 1; }
# pack reads no dataset but takes --dir like every other command.
"$CLI" pack --dir "$DIR" --model "$DIR/model.stm" --out "$DIR/copy2.stm" \
  > /dev/null
cmp "$DIR/model.stm" "$DIR/copy2.stm"

# A word that is neither a flag nor a flag's value -> 2; the switches
# --json and --geojson take no value.
for extra in "stray" "--json extra"; do
  rc=0
  # shellcheck disable=SC2086  # word-split the extra words on purpose
  "$CLI" summarize --model "$DIR/model.stm" --trip 3 $extra \
    > /dev/null 2>&1 || rc=$?
  [[ $rc -eq 2 ]] || {
    echo "summarize --trip 3 $extra: want exit 2, got $rc"; exit 1; }
done

# Numeric flags are read strictly: a malformed, non-finite or out-of-range
# value -> 3, before any work (never read as 0, never a generator CHECK).
for bad in "summarize --model $DIR/model.stm --trip abc" \
           "summarize --model $DIR/model.stm --trip 3 --k two" \
           "summarize --model $DIR/model.stm --trip 3 --eta nan" \
           "gen --dir $DIR/gen_bad --blocks ten" \
           "gen --dir $DIR/gen_bad --blocks 3" \
           "gen --dir $DIR/gen_bad --pois -3" \
           "gen --dir $DIR/gen_bad --trips -5" \
           "stats --dir $DIR --trips many" \
           "group --dir $DIR --from-hour 25"; do
  rc=0
  # shellcheck disable=SC2086  # word-split the command on purpose
  "$CLI" $bad > /dev/null 2>&1 || rc=$?
  [[ $rc -eq 3 ]] || { echo "$bad: want exit 3, got $rc"; exit 1; }
done

# Out-of-range trip index -> 5.
rc=0; "$CLI" summarize --dir "$DIR" --trip 99999 2>/dev/null || rc=$?
[[ $rc -eq 5 ]] || { echo "out-of-range trip: want exit 5, got $rc"; exit 1; }

# Missing dataset directory -> 8 (I/O error).
rc=0; "$CLI" summarize --dir "$DIR/nonexistent" --trip 0 2>/dev/null || rc=$?
[[ $rc -eq 8 ]] || { echo "missing dir: want exit 8, got $rc"; exit 1; }

# Malformed input data (ragged CSV row) -> 3, error on stderr not stdout.
BROKEN="$(mktemp -d)"
cp "$DIR"/network_nodes.csv "$DIR"/network_edges.csv "$DIR"/pois.csv \
   "$BROKEN/"
head -n 3 "$DIR/trajectories.csv" | cut -d, -f1-3 > "$BROKEN/trajectories.csv"
rc=0
STDOUT="$("$CLI" summarize --dir "$BROKEN" --trip 0 \
  2>"$BROKEN/stderr.txt")" || rc=$?
[[ $rc -eq 3 ]] || { echo "ragged CSV: want exit 3, got $rc"; exit 1; }
[[ -z "$STDOUT" ]] || { echo "error text leaked to stdout"; exit 1; }
grep -q "trajectories.csv" "$BROKEN/stderr.txt" || {
  echo "stderr does not name the bad file"; exit 1; }
rm -rf "$BROKEN"

# A model path with no container (an old CSV model prefix) -> 8.
rc=0; "$CLI" summarize --trip 3 --model "$DIR/model" 2>/dev/null || rc=$?
[[ $rc -eq 8 ]] || { echo "no container: want exit 8, got $rc"; exit 1; }

# A file that is not a container -> 3.
rc=0
"$CLI" summarize --trip 3 --model "$DIR/pois.csv" 2>/dev/null || rc=$?
[[ $rc -eq 3 ]] || { echo "not a container: want exit 3, got $rc"; exit 1; }

# Corrupted model section (CRC mismatch) -> 6 (failed precondition), from
# summarize and pack alike.
flip_section_byte "$DIR/model.stm" 12 "$DIR/badtransitions.stm"  # transitions
for cmd in "summarize --trip 3" "pack --out $DIR/bad_copy.stm"; do
  rc=0
  # shellcheck disable=SC2086  # word-split the subcommand on purpose
  "$CLI" $cmd --model "$DIR/badtransitions.stm" 2>"$DIR/bad.err" || rc=$?
  [[ $rc -eq 6 ]] || {
    echo "$cmd on a corrupted model: want exit 6, got $rc"; exit 1; }
  grep -q "section 'transitions' CRC32 mismatch" "$DIR/bad.err" || {
    echo "$cmd: error does not name the damaged section"
    cat "$DIR/bad.err"; exit 1; }
done
[[ ! -e "$DIR/bad_copy.stm" ]] || {
  echo "pack wrote a corrupted model"; exit 1; }

echo "cli_test OK"
