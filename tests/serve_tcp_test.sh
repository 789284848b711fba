#!/usr/bin/env bash
# Golden-corpus-over-TCP parity: the epoll front-end must produce responses
# byte-identical to the stdin serve loop for the same request stream, at
# one and at four worker threads. Also checks the TCP-only surface: the
# "listening on" stderr line, keep-alive pipelining from a second
# connection, and a clean SIGTERM drain with exit 0.
# Registered with ctest; $1 is the path to the stmaker_cli binary.
set -euo pipefail

CLI="$1"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen + train =="
serve_world

# The parity corpus: summaries (several trips and option shapes), routing,
# out-of-range and malformed requests. `stats` is deliberately absent —
# its snapshot includes live transport counters, which legitimately differ
# between stdin and TCP serving.
REQUESTS="$DIR/requests.ndjson"
cat > "$REQUESTS" <<'EOF'
{"id": 1, "trip": 3}
{"id": 2, "trip": 7, "k": 2, "eta": 0.3}
{"id": 3, "trip": 11, "k": 3}
{"id": 4, "trip": 99999}
{"id": 5, "route": 1, "src": 0, "dst": 50}
{"id": 6, "route": 1, "src": 3}
not json at all
{"id": 8, "trip": 21, "eta": 0.1}
{"id": 9, "trip": 2, "deadline_ms": -5}
{"id": 10, "trip": 40}
EOF

for threads in 1 4; do
  echo "== parity at --threads $threads =="
  STDIN_OUT="$DIR/stdin.$threads.ndjson"
  "$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads "$threads" \
    < "$REQUESTS" > "$STDIN_OUT" 2>/dev/null

  serve_start "$DIR/serve.stderr" --threads "$threads"
  TCP_OUT="$DIR/tcp.$threads.ndjson"
  tcp_client "$PORT" "$REQUESTS" "$TCP_OUT"
  serve_stop

  [[ "$(wc -l < "$STDIN_OUT")" -eq 10 ]] || {
    echo "stdin mode: want 10 responses"; cat "$STDIN_OUT"; exit 1; }
  [[ "$(wc -l < "$TCP_OUT")" -eq 10 ]] || {
    echo "tcp mode: want 10 responses"; cat "$TCP_OUT"; exit 1; }
  # Async summaries may interleave differently with the synchronous
  # responses; the content contract is per-request, so compare sorted.
  if ! diff <(sort "$STDIN_OUT") <(sort "$TCP_OUT"); then
    echo "TCP responses diverge from the stdin loop at $threads threads"
    exit 1
  fi
done

echo "== keep-alive pipelining across two sequential clients =="
serve_start "$DIR/serve.stderr" --threads 2
tcp_client "$PORT" "$REQUESTS" "$DIR/first.ndjson"
tcp_client "$PORT" "$REQUESTS" "$DIR/second.ndjson"
if ! diff <(sort "$DIR/first.ndjson") <(sort "$DIR/second.ndjson"); then
  echo "second connection on the same server answered differently"
  exit 1
fi
serve_stop
grep -q "drained in" "$DIR/serve.stderr" || {
  echo "missing drain report"; cat "$DIR/serve.stderr"; exit 1; }
# 20 from the two pipelined clients + 1 serve_start readiness probe.
grep -q "served 21 requests" "$DIR/serve.stderr" || {
  echo "shutdown report miscounted"; cat "$DIR/serve.stderr"; exit 1; }

echo "== TCP flag validation =="
for flag in --port --listen_threads --max_connections --idle_timeout_ms \
            --loris_timeout_ms --drain_deadline_ms --max_line_bytes; do
  rc=0
  "$CLI" serve --dir "$DIR" --model "$DIR/model.stm" "$flag" garbage \
    < /dev/null > /dev/null 2>&1 || rc=$?
  [[ $rc -eq 3 ]] || { echo "$flag garbage: want exit 3, got $rc"; exit 1; }
done
rc=0
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --port 70000 \
  < /dev/null > /dev/null 2>&1 || rc=$?
[[ $rc -eq 3 ]] || { echo "--port 70000: want exit 3, got $rc"; exit 1; }

echo "PASS"
