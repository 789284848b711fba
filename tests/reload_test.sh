#!/usr/bin/env bash
# Zero-downtime model lifecycle over the wire (DESIGN.md §15):
#   - a reload under live mixed traffic (summarize + the index-backed
#     `similar`/`query` retrieval verbs) loses not a single request, and
#     responses span both model versions (each echoes the snapshot it was
#     pinned to) — the trajectory-index swap rides the same snapshot pin;
#   - a reload from a corrupt (truncated) model container is a typed error
#     that rolls back — the old snapshot keeps serving and
#     model.reload_failures increments;
#   - SIGHUP triggers the same in-place reload, asynchronously;
#   - an in-place reload of the same model container leaves response
#     bytes identical (modulo the model_version echo).
# Registered with ctest; $1 is the path to the stmaker_cli binary.
set -euo pipefail

CLI="$1"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen + train =="
serve_world

echo "== make a corrupt model copy (truncated container) =="
BAD="$DIR/badmodel.stm"
# A truncated container no longer matches its header's file_bytes, so
# MappedContainer::Open rejects it and the reload must roll back.
head -c 3000 "$DIR/model.stm" > "$BAD"

echo "== start server =="
serve_start "$DIR/serve.stderr" --threads 2

echo "== reload under live traffic: zero dropped, versions span the swap =="
live_ok=1
python3 - "$PORT" > "$DIR/live.out" <<'PYEOF' || live_ok=0
import json, socket, sys, threading, time

port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=30)
s.settimeout(30)

responses = []
answered = threading.Semaphore(0)
def reader():
    buf = b""
    while True:
        try:
            chunk = s.recv(65536)
        except OSError:
            break
        if not chunk:
            break
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            responses.append(json.loads(line))
            answered.release()
t = threading.Thread(target=reader)
t.start()

# Self-pacing sender: at most 16 requests outstanding, well under the
# server's in-flight cap, so the stream stays brisk on a fast build and
# merely slows down (instead of shedding) on a sanitizer build.
WINDOW = 16
sent = []
reload_id = 10_000
for i in range(300):
    if len(sent) >= WINDOW:  # wait for one answer per further send
        if not answered.acquire(timeout=60):
            print("FAIL: stream stalled waiting for responses")
            sys.exit(1)
    if i == 150:  # mid-stream: swap the model under the traffic
        s.sendall((json.dumps({"id": reload_id, "reload": 1}) + "\n").encode())
        sent.append(reload_id)
    # Mixed verbs: the trajectory index (similar/query) swaps with the
    # snapshot, under load, exactly like the summarize path.
    if i % 3 == 1:
        req = {"id": i, "similar": 1, "trip": i % 80, "k": 3}
    elif i % 3 == 2:
        req = {"id": i, "query": 1, "bbox": "0,-3000,3000,0",
               "window": "0,86400"}
    else:
        req = {"id": i, "trip": i % 80}
    s.sendall((json.dumps(req) + "\n").encode())
    sent.append(i)
    time.sleep(0.001)
s.shutdown(socket.SHUT_WR)
t.join(timeout=60)
s.close()

by_id = {}
for rec in responses:
    by_id.setdefault(rec["id"], []).append(rec)
dropped = [i for i in sent if i not in by_id]
dupes = [i for i, rs in by_id.items() if len(rs) > 1]
failed = [r for rs in by_id.values() for r in rs if r["status"] != "ok"]
if dropped:
    print(f"FAIL: {len(dropped)} requests dropped across the swap: {dropped[:5]}")
    sys.exit(1)
if dupes:
    print(f"FAIL: duplicated responses: {dupes[:5]}")
    sys.exit(1)
if failed:
    print(f"FAIL: non-ok responses during swap: {failed[:3]}")
    sys.exit(1)
versions = sorted({r["model_version"]
                   for rs in by_id.values() for r in rs})
if len(versions) < 2:
    print(f"FAIL: responses never spanned the swap (versions {versions})")
    sys.exit(1)
print(f"answered {len(by_id)}/{len(sent)}, versions {versions}")
PYEOF
cat "$DIR/live.out"
[[ $live_ok -eq 1 ]] || { echo "live-traffic leg failed"; cat "$DIR/serve.stderr"; exit 1; }

probe() {  # probe <request-line> <out-file>
  printf '%s\n' "$1" > "$DIR/probe.req"
  tcp_client "$PORT" "$DIR/probe.req" "$2"
}

echo "== corrupt reload: typed error, rollback, old snapshot serves on =="
probe '{"id": 1, "stats": 1}' "$DIR/before.ndjson"
V_BEFORE="$(sed -n 's/.*"model_version": \([0-9]*\)}$/\1/p' "$DIR/before.ndjson")"
probe "{\"id\": 2, \"reload\": 1, \"model_dir\": \"$BAD\"}" "$DIR/bad.ndjson"
grep -q '"id": 2, "status": "invalid_argument"' "$DIR/bad.ndjson" || {
  echo "corrupt reload not reported as a typed error"
  cat "$DIR/bad.ndjson"; exit 1; }
probe '{"id": 3, "stats": 1}' "$DIR/after.ndjson"
grep -q '"model.reload_failures": 1' "$DIR/after.ndjson" || {
  echo "reload_failures not incremented"; cat "$DIR/after.ndjson"; exit 1; }
V_AFTER="$(sed -n 's/.*"model_version": \([0-9]*\)}$/\1/p' "$DIR/after.ndjson")"
[[ "$V_AFTER" == "$V_BEFORE" ]] || {
  echo "rollback changed the serving version: $V_BEFORE -> $V_AFTER"; exit 1; }
probe '{"id": 4, "trip": 7}' "$DIR/still.ndjson"
grep -q '"id": 4, "status": "ok"' "$DIR/still.ndjson" || {
  echo "old snapshot stopped serving after the failed reload"; exit 1; }

echo "== SIGHUP reloads in place =="
kill -HUP "$SERVE_PID"
HUP_OK=0
for _ in $(seq 1 100); do
  probe '{"id": 5, "stats": 1}' "$DIR/hup.ndjson"
  V_HUP="$(sed -n 's/.*"model_version": \([0-9]*\)}$/\1/p' "$DIR/hup.ndjson")"
  [[ -n "$V_HUP" && "$V_HUP" -gt "$V_AFTER" ]] && { HUP_OK=1; break; }
  sleep 0.05
done
[[ $HUP_OK -eq 1 ]] || { echo "SIGHUP never swapped the model"; exit 1; }

echo "== in-place reload keeps the response bytes identical =="
cat > "$DIR/golden.req" <<'EOF'
{"id": 1, "trip": 3}
{"id": 2, "trip": 7, "k": 2, "eta": 0.3}
{"id": 3, "trip": 11, "k": 3}
{"id": 4, "route": 1, "src": 0, "dst": 50}
{"id": 5, "trip": 21, "eta": 0.1}
EOF
strip_version() { sed 's/, "model_version": [0-9]*//'; }
tcp_client "$PORT" "$DIR/golden.req" "$DIR/golden.before"
probe '{"id": 9, "reload": 1}' "$DIR/reload.ndjson"
grep -q '"id": 9, "status": "ok", "reloaded": 1' "$DIR/reload.ndjson" || {
  echo "in-place reload failed"; cat "$DIR/reload.ndjson"; exit 1; }
tcp_client "$PORT" "$DIR/golden.req" "$DIR/golden.after"
if ! diff <(strip_version < "$DIR/golden.before" | sort) \
          <(strip_version < "$DIR/golden.after" | sort); then
  echo "golden responses changed across an in-place reload"; exit 1
fi

echo "== drain still exits 0 after the lifecycle exercise =="
serve_stop
grep -q "reloads ok" "$DIR/serve.stderr" || {
  echo "shutdown report lacks the model line"; cat "$DIR/serve.stderr"; exit 1; }

echo "PASS"
