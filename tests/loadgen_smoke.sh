#!/usr/bin/env bash
# Loadgen saturation smoke: drive the TCP server with the open-loop
# Poisson client well past a comfortable rate for a short burst, check
# the JSON report is well-formed (every sent request accounted for,
# percentiles ordered), and that the server drains cleanly afterwards.
# Registered with ctest; $1 = stmaker_cli binary, $2 = loadgen binary.
set -euo pipefail

CLI="$1"
LOADGEN="$2"
DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

echo "== loadgen flag validation =="
for bad in "--port notanumber" "--qps -3" "--connections 0" \
           "--duration_s forever"; do
  rc=0
  # shellcheck disable=SC2086  # word-splitting the flag pair is the point
  "$LOADGEN" --port 1 $bad > /dev/null 2>&1 || rc=$?
  [[ $rc -eq 3 ]] || { echo "loadgen $bad: want exit 3, got $rc"; exit 1; }
done
rc=0
"$LOADGEN" > /dev/null 2>&1 || rc=$?
[[ $rc -eq 2 ]] || { echo "loadgen without --port: want exit 2, got $rc"; exit 1; }

echo "== gen + train =="
"$CLI" gen --dir "$DIR" --seed 5 --blocks 10 --trips 80 --pois 100
"$CLI" train --dir "$DIR" --model "$DIR/model.stm"

echo "== start TCP server =="
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads 2 --port 0 \
  --max_inflight 64 2> "$DIR/serve.stderr" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 400); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$DIR/serve.stderr")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "server died during startup"; cat "$DIR/serve.stderr"; exit 1; }
  sleep 0.05
done
[[ -n "$PORT" ]] || { echo "no port"; cat "$DIR/serve.stderr"; exit 1; }

echo "== saturation burst =="
"$LOADGEN" --port "$PORT" --connections 8 --qps 2000 --duration_s 1 \
  --trips 80 --seed 7 --json > "$DIR/report.json"

python3 - "$DIR/report.json" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    r = json.load(f)
sent, received = r["sent"], r["received"]
if sent < 500:
    print(f"FAIL: only {sent} requests sent in a 2000qps/1s burst")
    sys.exit(1)
if received != sent:
    print(f"FAIL: sent {sent} but received {received}")
    sys.exit(1)
if r["unanswered"] != 0:
    print(f"FAIL: {r['unanswered']} unanswered requests")
    sys.exit(1)
ok, shed = r["ok"], r["shed"]
if ok == 0:
    print("FAIL: no request ever succeeded under saturation")
    sys.exit(1)
if ok + shed > received:
    print(f"FAIL: ok {ok} + shed {shed} exceeds received {received}")
    sys.exit(1)
p50, p99, pmax = r["p50_ms"], r["p99_ms"], r["max_ms"]
if not (0 < p50 <= p99 <= pmax):
    print(f"FAIL: percentiles out of order: p50={p50} p99={p99} max={pmax}")
    sys.exit(1)
print(f"sent={sent} ok={ok} shed={shed} p50={p50:.3f}ms p99={p99:.3f}ms")
PYEOF

echo "== server drains after the burst =="
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "exit nonzero"; cat "$DIR/serve.stderr"; exit 1; }
SERVE_PID=""
grep -q "drained in" "$DIR/serve.stderr" || {
  echo "missing drain report"; cat "$DIR/serve.stderr"; exit 1; }

echo "== overload shedding burst (max_inflight 1) =="
# A one-slot server under the same offered load is guaranteed to reject
# requests at admission; every rejection must still produce a
# resource_exhausted answer (this is the regression test for answering
# the client after the pool turned the request away).
"$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --threads 1 --port 0 \
  --max_inflight 1 2> "$DIR/serve2.stderr" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 400); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$DIR/serve2.stderr")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "server died during startup"; cat "$DIR/serve2.stderr"; exit 1; }
  sleep 0.05
done
[[ -n "$PORT" ]] || { echo "no port"; cat "$DIR/serve2.stderr"; exit 1; }
"$LOADGEN" --port "$PORT" --connections 8 --qps 2000 --duration_s 1 \
  --trips 80 --seed 8 --json > "$DIR/report2.json"
python3 - "$DIR/report2.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
if r["unanswered"] != 0:
    print(f"FAIL: {r['unanswered']} requests never answered under shedding")
    sys.exit(1)
if r["received"] != r["sent"]:
    print(f"FAIL: sent {r['sent']} but received {r['received']}")
    sys.exit(1)
print(f"shed burst: sent={r['sent']} ok={r['ok']} shed={r['shed']}")
PYEOF
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
  echo "one-slot server exit nonzero"; cat "$DIR/serve2.stderr"; exit 1; }
SERVE_PID=""

echo "PASS"
