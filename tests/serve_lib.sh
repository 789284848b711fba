# Shared helpers for the `stmaker_cli serve` shell tests. Source this
# after setting CLI to the stmaker_cli path:
#
#   CLI="$1"
#   source "$(dirname "$0")/serve_lib.sh"
#
# Provides a fresh scratch $DIR (removed on exit), and:
#
#   serve_world            gen + train the standard 80-trip test world
#                          into $DIR/model.stm
#   serve_start ERR [ARGS] start `serve --port 0 ARGS` with stderr to ERR;
#                          sets SERVE_PID and PORT (parsed from the
#                          startup line — never a hardcoded port, so
#                          parallel ctest runs cannot collide)
#   serve_stop             SIGTERM + wait; fails the test on nonzero exit
#   tcp_client P REQ OUT   one connection to port P: send file REQ
#                          pipelined, half-close, read replies to EOF
#   flip_section_byte C T OUT
#                          copy model container C to OUT with one payload
#                          byte of its section type T flipped
#
# Environment intended for a server (e.g. STMAKER_FAILPOINTS) can be set
# per call: `STMAKER_FAILPOINTS=... serve_start ...` works as usual.

DIR="$(mktemp -d)"
SERVE_PID=""
serve_lib_cleanup() {
  # A server the test already reaped is no error (set -e is still on).
  if [[ -n "$SERVE_PID" ]]; then kill -9 "$SERVE_PID" 2>/dev/null || true; fi
  rm -rf "$DIR"
}
trap serve_lib_cleanup EXIT

serve_world() {
  "$CLI" gen --dir "$DIR" --seed 5 --blocks 10 --trips 80 --pois 100
  "$CLI" train --dir "$DIR" --model "$DIR/model.stm"
}

serve_start() {  # serve_start <stderr-file> [serve-args...]
  local err="$1"
  shift
  : > "$err"
  "$CLI" serve --dir "$DIR" --model "$DIR/model.stm" --port 0 "$@" 2> "$err" &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 400); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$err")"
    [[ -n "$PORT" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || {
      echo "server died during startup"; cat "$err"; exit 1; }
    sleep 0.05
  done
  [[ -n "$PORT" ]] || { echo "server never reported its port"; cat "$err"; exit 1; }
  # Readiness = a stats probe actually answers, not just a printed port
  # line: the accept loop and the pinned snapshot must both be live before
  # a test starts timing or hammering the server.
  printf '{"id": 0, "stats": 1}\n' > "$DIR/.ready.req"
  for _ in $(seq 1 400); do
    if tcp_client "$PORT" "$DIR/.ready.req" "$DIR/.ready.out" 2>/dev/null \
        && grep -q '"status": "ok"' "$DIR/.ready.out"; then
      return 0
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || {
      echo "server died before answering a stats probe"; cat "$err"; exit 1; }
    sleep 0.05
  done
  echo "server never answered a stats probe"; cat "$err"; exit 1
}

serve_stop() {
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" || { echo "server exited nonzero on drain"; exit 1; }
  SERVE_PID=""
}

tcp_client() {  # tcp_client <port> <requests-file> <out-file>
  python3 - "$1" "$2" "$3" <<'PYEOF'
import socket, sys
port, req_path, out_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
with open(req_path, "rb") as f:
    payload = f.read()
s = socket.create_connection(("127.0.0.1", port), timeout=60)
s.sendall(payload)
s.shutdown(socket.SHUT_WR)
data = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
with open(out_path, "wb") as f:
    f.write(data)
PYEOF
}

# Copies container $1 to $3 with one byte flipped in the middle of the
# payload of the first section of type $2 (docs/FORMAT.md §3: the table
# starts at byte 64, 64 bytes per entry: type at +0, offset at +16, bytes
# at +24). Header and table stay intact, so only the section CRC catches
# the damage.
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
