#!/usr/bin/env bash
# Stress test for `stmaker_cli serve` under fault injection: many
# concurrent requests with tight deadlines while the "route/stall"
# failpoint slows every popular-route search to a crawl. Every request
# must still get exactly one answer and the server must shut down
# cleanly — this is the CI hammer that runs under ThreadSanitizer with
# -DSTMAKER_FAILPOINTS=ON, where a racy deadline path or a lost response
# would surface immediately.
#
# $1 is the path to the stmaker_cli binary. Works (as a plain load test)
# in builds without failpoints too: the stall simply never fires.
set -euo pipefail

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" gen --dir "$DIR" --seed 5 --blocks 10 --trips 60 --pois 100
"$CLI" train --dir "$DIR" --model "$DIR/model.stm"

NUM_REQUESTS=120
REQUESTS="$DIR/requests.ndjson"
for ((i = 0; i < NUM_REQUESTS; i++)); do
  case $((i % 4)) in
    0) printf '{"id": %d, "trip": %d}\n' "$i" $((i % 60)) ;;
    1) printf '{"id": %d, "trip": %d, "deadline_ms": 40}\n' "$i" $((i % 60)) ;;
    2) printf '{"id": %d, "trip": %d, "deadline_ms": -1}\n' "$i" $((i % 60)) ;;
    3) printf '{"id": %d, "trip": %d, "k": 2}\n' "$i" $((i % 60)) ;;
  esac
done > "$REQUESTS"

OUT="$DIR/responses.ndjson"
ERR="$DIR/serve.stderr"
# max_inflight 64 < the 90 non-expired requests: some are shed at
# admission (exercising resource_exhausted), while the 64 admitted ones
# all stall and race the deadline checks.
STMAKER_FAILPOINTS="route/stall" \
  "$CLI" serve --dir "$DIR" --model "$DIR/model.stm" \
  --threads 4 --deadline_ms 200 --max_inflight 64 \
  < "$REQUESTS" > "$OUT" 2> "$ERR"

echo "--- stderr ---"
cat "$ERR"

# Clean shutdown already implied by exit 0 (set -e). Now: exactly one
# response per request, all of them well-formed, no id unanswered.
GOT="$(wc -l < "$OUT")"
[[ "$GOT" -eq "$NUM_REQUESTS" ]] || {
  echo "want $NUM_REQUESTS responses, got $GOT"; exit 1; }
for ((i = 0; i < NUM_REQUESTS; i++)); do
  grep -q "\"id\": $i," "$OUT" || { echo "request $i unanswered"; exit 1; }
done
while IFS= read -r line; do
  [[ "$line" == '{"id": '*'"status": "'* ]] || {
    echo "malformed response: $line"; exit 1; }
done < "$OUT"

# Only the statuses the protocol can produce for a summarize request — a
# request's deadline is its only time limit, so an overrun is always
# deadline_exceeded — and the deterministic already-expired requests
# (every 4th) really did fail with the deadline.
if grep -vq -E '"status": "(ok|deadline_exceeded|resource_exhausted)"' "$OUT"; then
  echo "unexpected status in responses:"; \
    grep -v -E '"status": "(ok|deadline_exceeded|resource_exhausted)"' "$OUT"
  exit 1
fi
EXPIRED=$((NUM_REQUESTS / 4))
DEADLINED="$(grep -c '"status": "deadline_exceeded"' "$OUT" || true)"
[[ "$DEADLINED" -ge "$EXPIRED" ]] || {
  echo "want >= $EXPIRED deadline_exceeded, got $DEADLINED"; exit 1; }

grep -q "served $NUM_REQUESTS requests" "$ERR" || {
  echo "shutdown report missing or wrong"; exit 1; }

echo "serve_hammer OK ($DEADLINED deadline_exceeded of $NUM_REQUESTS)"
