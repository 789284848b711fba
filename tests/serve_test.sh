#!/usr/bin/env bash
# End-to-end test for `stmaker_cli serve`: NDJSON request/response over
# stdin/stdout, per-request deadlines, malformed-input handling, the
# shutdown report, --threads / --max_inflight flag validation, the routing
# backend of container and in-process models, a container served without
# --dir, and an in-place reload of an in-process model.
# Registered with ctest; $1 is the path to the stmaker_cli binary.
set -euo pipefail

CLI="$1"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen + train =="
serve_world

echo "== serve answers every request and exits 0 =="
REQUESTS="$DIR/requests.ndjson"
cat > "$REQUESTS" <<'EOF'
{"id": 1, "trip": 3}
{"id": 2, "trip": 99999}
{"id": 3, "trip": 4, "deadline_ms": -1}
this line is not json
{"id": 5, "trip": 5, "k": 2, "eta": 0.3}
EOF
OUT="$DIR/responses.ndjson"
ERR="$DIR/serve.stderr"
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads 2 \
  < "$REQUESTS" > "$OUT" 2> "$ERR"
cat "$OUT"

# One response line per request line, each a JSON object.
[[ "$(wc -l < "$OUT")" -eq 5 ]] || { echo "want 5 responses"; exit 1; }
while IFS= read -r line; do
  [[ "$line" == "{"*"}" ]] || { echo "non-JSON response: $line"; exit 1; }
done < "$OUT"

grep -q '"id": 1, "status": "ok"' "$OUT" || { echo "id 1 not ok"; exit 1; }
grep '"id": 1' "$OUT" | grep -q '"text": "The car started from' || {
  echo "id 1 lacks a summary text"; exit 1; }
grep -q '"id": 2, "status": "out_of_range"' "$OUT" || {
  echo "id 2 not out_of_range"; exit 1; }
grep -q '"id": 3, "status": "deadline_exceeded"' "$OUT" || {
  echo "id 3 not deadline_exceeded"; exit 1; }
grep -q '"id": -1, "status": "invalid_argument"' "$OUT" || {
  echo "malformed line not reported"; exit 1; }
grep -q '"id": 5, "status": "ok"' "$OUT" || { echo "id 5 not ok"; exit 1; }

echo "== shutdown report and cache stats land on stderr =="
grep -q "served 5 requests (1 malformed" "$ERR" || {
  echo "missing shutdown report"; cat "$ERR"; exit 1; }
grep -q "calibration cache:" "$ERR" || { echo "missing cache stats"; exit 1; }
grep -q "popular-route cache:" "$ERR" || {
  echo "missing route cache stats"; exit 1; }
grep -q "hit rate" "$ERR" || { echo "stats lack a hit rate"; exit 1; }

echo "== an expired server-wide --deadline_ms fails requests, not the server =="
OUT2="$DIR/responses2.ndjson"
printf '{"id": 9, "trip": 1}\n' | "$CLI" serve --dir "$DIR" \
  --model "$DIR/model.stm" --deadline_ms -1 > "$OUT2" 2>/dev/null
grep -q '"id": 9, "status": "deadline_exceeded"' "$OUT2" || {
  echo "server-wide deadline ignored"; exit 1; }

echo "== --threads edge cases =="
# 0 = auto-detect: a valid request must still succeed.
OUT3="$DIR/responses3.ndjson"
printf '{"id": 4, "trip": 2}\n' | "$CLI" serve --dir "$DIR" \
  --model "$DIR/model.stm" --threads 0 > "$OUT3" 2>/dev/null
grep -q '"id": 4, "status": "ok"' "$OUT3" || { echo "--threads 0 broke"; exit 1; }

# Negative, oversized, and non-numeric values are usage errors -> exit 3.
for bad in -4 99999 abc; do
  rc=0
  "$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads "$bad" \
    < /dev/null > /dev/null 2>&1 || rc=$?
  [[ $rc -eq 3 ]] || { echo "--threads $bad: want exit 3, got $rc"; exit 1; }
done
# The same validation applies outside serve mode.
rc=0
"$CLI" summarize --dir "$DIR" --trip 1 --threads -1 > /dev/null 2>&1 || rc=$?
[[ $rc -eq 3 ]] || { echo "summarize --threads -1: want 3, got $rc"; exit 1; }

echo "== --max_inflight must be positive =="
rc=0
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --max_inflight 0 \
  < /dev/null > /dev/null 2>&1 || rc=$?
[[ $rc -eq 3 ]] || { echo "--max_inflight 0: want exit 3, got $rc"; exit 1; }

echo "== stats request: readiness probe + metrics snapshot =="
# The server is driven through a FIFO so we can poll its output instead of
# guessing with fixed sleeps: a stats request is answered synchronously on
# the accept thread, so its response doubles as the readiness signal.
OUT4="$DIR/responses4.ndjson"
FIFO="$DIR/requests.fifo"
mkfifo "$FIFO"
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads 2 \
  < "$FIFO" > "$OUT4" 2>/dev/null &
SERVE_PID=$!
exec 9> "$FIFO"

poll_for() {  # poll_for <pattern> — bounded wait on the response stream
  for _ in $(seq 1 400); do
    grep -q "$1" "$OUT4" 2>/dev/null && return 0
    sleep 0.05
  done
  echo "timed out waiting for: $1"; kill "$SERVE_PID" 2>/dev/null; exit 1
}

printf '{"id": 70, "stats": 1}\n' >&9
poll_for '"id": 70'
grep '"id": 70' "$OUT4" | grep -q '"status": "ok", "stats": {"counters"' || {
  echo "stats response malformed"; exit 1; }

# One summarize request; its response line means every pipeline-stage
# metric for it has been recorded (metrics land before the response).
printf '{"id": 71, "trip": 1}\n' >&9
poll_for '"id": 71'
printf '{"id": 72, "stats": 1}\n' >&9
exec 9>&-
wait "$SERVE_PID"
STATS2="$(grep '"id": 72' "$OUT4")"
for metric in '"serve.requests": 3' '"serve.stats_requests": 2' \
    '"stmaker.summarize.requests": 1' '"stmaker.summarize.ok": 1' \
    'stmaker.stage.total_ms' 'stmaker.stage.sanitize_ms' \
    'stmaker.stage.calibrate_ms' 'stmaker.stage.extract_ms' \
    'stmaker.stage.partition_ms' 'stmaker.stage.select_ms' \
    'stmaker.stage.generate_ms' 'roadnet.map_match_ms' \
    'threadpool.admitted' \
    '"model.version": 1' '"model.loaded_unix_ms": ' \
    '"model.reloads_ok": 0' '"model.reload_failures": 0' \
    '"process.uptime_ms": '; do
  echo "$STATS2" | grep -q "$metric" || {
    echo "stats snapshot lacks $metric"; echo "$STATS2"; exit 1; }
done

echo "== every ok response echoes the model version it was served from =="
echo "$STATS2" | grep -q '"model_version": 1}$' || {
  echo "stats response lacks a top-level model_version"; exit 1; }
grep '"id": 71' "$OUT4" | grep -q '"model_version": 1}$' || {
  echo "summarize response lacks model_version"; exit 1; }

echo "== route requests: the container's ch backend and request flags =="
REQ6="$DIR/requests6.ndjson"
cat > "$REQ6" <<'EOF'
{"id": 80, "route": 1, "src": 0, "dst": 40}
{"id": 81, "route": 1, "src": 0, "dst": 40, "deadline_ms": -1}
{"id": 82, "route": 1, "src": 0, "dst": 40, "max_expansions": 1}
{"id": 83, "route": 1}
EOF
OUT6="$DIR/responses6.ndjson"
ERR6="$DIR/serve6.stderr"
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" \
  < "$REQ6" > "$OUT6" 2> "$ERR6"
cat "$OUT6"
grep -q "(router: ch," "$ERR6" || { echo "serve did not pick ch"; exit 1; }
grep -q '"id": 80, "status": "ok", "cost": ' "$OUT6" || {
  echo "route request failed"; exit 1; }
grep -q '"id": 81, "status": "deadline_exceeded"' "$OUT6" || {
  echo "route deadline ignored"; exit 1; }
grep -q '"id": 82, "status": "resource_exhausted"' "$OUT6" || {
  echo "route expansion budget ignored"; exit 1; }
grep -q '"id": 83, "status": "invalid_argument"' "$OUT6" || {
  echo "route without src/dst not rejected"; exit 1; }

echo "== a corrupted hierarchy section warns and routes the same, no crash =="
# The load drops the damaged hierarchy and serves Dijkstra (a container
# load never contracts one), which answers the same bytes.
flip_section_byte "$DIR/model.stm" 20 "$DIR/badch.stm"  # ch-arcs
OUT8="$DIR/responses8.ndjson"
ERR8="$DIR/serve8.stderr"
printf '{"id": 84, "route": 1, "src": 0, "dst": 40}\n' | \
  "$CLI" serve --dir "$DIR" --model "$DIR/badch.stm" > "$OUT8" 2> "$ERR8"
grep -q "section 'ch-arcs' CRC32 mismatch" "$ERR8" || {
  echo "the warning does not name the damaged section"; cat "$ERR8"; exit 1; }
grep -q "falling back to Dijkstra" "$ERR8" || {
  echo "missing fallback warning"; cat "$ERR8"; exit 1; }
grep -q "(router: dijkstra," "$ERR8" || {
  echo "a damaged hierarchy did not fall back to dijkstra"; cat "$ERR8"
  exit 1; }
diff <(grep '"id": 80' "$OUT6" | sed 's/"id": 80/"id": 84/') "$OUT8" || {
  echo "route changed after hierarchy corruption"; exit 1; }

echo "== serve without --model: trained in-process, contracted, reloadable =="
# Training from the CSVs gives the model `train` saved, so a summarize and
# a route answer the container-served bytes; the in-process snapshot
# contracts its own hierarchy, and so does every in-place reload.
REQ9="$DIR/requests9.ndjson"
printf '%s\n' '{"id": 90, "trip": 3}' \
  '{"id": 91, "route": 1, "src": 0, "dst": 40}' > "$REQ9"
OUT9M="$DIR/responses9_model.ndjson"
OUT9="$DIR/responses9.ndjson"
ERR9="$DIR/serve9.stderr"
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" \
  < "$REQ9" > "$OUT9M" 2>/dev/null
"$CLI" serve --dir "$DIR" < "$REQ9" > "$OUT9" 2> "$ERR9"
grep -q "(router: ch," "$ERR9" || {
  echo "the in-process model serves without a hierarchy"; cat "$ERR9"; exit 1; }
[[ "$(wc -l < "$OUT9")" -eq 2 ]] || { echo "want 2 responses"; exit 1; }
diff <(sort "$OUT9M") <(sort "$OUT9") || {
  echo "in-process replies differ from the container-served ones"; exit 1; }
OUT10="$DIR/responses10.ndjson"
printf '%s\n' '{"id": 92, "route": 1, "src": 0, "dst": 40}' \
  '{"id": 93, "reload": 1}' | "$CLI" serve --dir "$DIR" > "$OUT10" 2>/dev/null
cat "$OUT10"
grep -q '"id": 92, "status": "ok"' "$OUT10" || {
  echo "route before the reload failed"; exit 1; }
grep -q '"id": 93, "status": "ok", "reloaded": 1, "model_version": 2}' \
  "$OUT10" || { echo "in-place reload of an in-process model failed"; exit 1; }

echo "== serve --model without --dir: the container is the whole world =="
OUT11="$DIR/responses11.ndjson"
"$CLI" serve --model "$DIR/model.stm" < "$REQ9" > "$OUT11" 2>/dev/null
diff <(sort "$OUT9M") <(sort "$OUT11") || {
  echo "serving a container without --dir changed the replies"; exit 1; }
OUT12="$DIR/responses12.ndjson"
printf '{"id": 94, "reload": 1}\n' | "$CLI" serve --model "$DIR/model.stm" \
  > "$OUT12" 2>/dev/null
grep -q '"id": 94, "status": "ok", "reloaded": 1, "model_version": 2}' \
  "$OUT12" || { echo "in-place reload without --dir failed"; exit 1; }
rc=0; "$CLI" serve < /dev/null > /dev/null 2>&1 || rc=$?
[[ $rc -eq 2 ]] || { echo "serve without --dir/--model: want 2, got $rc"; exit 1; }

echo "== --trace_log writes parseable span trees and changes no output =="
REQ5="$DIR/requests5.ndjson"
cat > "$REQ5" <<'EOF'
{"id": 1, "trip": 3}
{"id": 2, "trip": 5, "k": 2}
EOF
OUT5A="$DIR/responses5a.ndjson"
OUT5B="$DIR/responses5b.ndjson"
TRACE="$DIR/trace.ndjson"
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads 1 \
  < "$REQ5" > "$OUT5A" 2>/dev/null
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads 1 \
  --trace_log "$TRACE" < "$REQ5" > "$OUT5B" 2>/dev/null
diff "$OUT5A" "$OUT5B" || {
  echo "tracing changed the responses"; exit 1; }
python3 - "$TRACE" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 2, f"want 2 trace lines, got {len(lines)}"
ids = set()
for line in lines:
    rec = json.loads(line)          # every line must parse
    ids.add(rec["id"])
    spans = rec["trace"]["spans"]
    assert len(spans) == 1, "want one root span"
    root = spans[0]
    assert root["name"] == "summarize", root["name"]
    child_names = [c["name"] for c in root["children"]]
    for stage in ("sanitize", "calibrate", "extract", "partition",
                  "select", "generate"):
        assert stage in child_names, f"missing stage span {stage}"
    assert root["end_ms"] >= root["start_ms"]
assert ids == {1, 2}, ids
print("trace log OK: 2 parseable span trees, all stages present")
EOF

echo "serve_test OK"
