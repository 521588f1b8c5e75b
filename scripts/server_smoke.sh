#!/usr/bin/env bash
# Server smoke: start or-server on the example database, drive the three
# serving endpoints concurrently, then gate on a clean graceful shutdown.
# Run from the repository root (CI runs exactly this script).
set -euo pipefail

ADDR="127.0.0.1:7171"
BASE="http://$ADDR"
LOG="$(mktemp)"

cargo build --release -p or-server

target/release/or-server --addr "$ADDR" --db example=examples/server_db.orql \
    >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# wait for the listener
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -sf "$BASE/healthz" | grep -q '"status":"serving"'

# concurrent clients over /query, /stats and /healthz
run_client() {
    for _ in $(seq 1 5); do
        body='{"db":"example","statement":"{ fst(p) | p <- parts, snd(p) <= 45 }"}'
        out="$(curl -sf -X POST "$BASE/query" -d "$body")"
        echo "$out" | grep -q '"value":"{1, 2, 3}"' || { echo "bad query result: $out"; exit 1; }
        echo "$out" | grep -q '"route":"engine"' || { echo "not engine-served: $out"; exit 1; }
        curl -sf "$BASE/stats" | grep -q '"example"' || exit 1
        curl -sf "$BASE/healthz" >/dev/null || exit 1
    done
}
PIDS=()
for _ in $(seq 1 4); do run_client & PIDS+=($!); done
for pid in "${PIDS[@]}"; do wait "$pid"; done

# a write, then read it back
curl -sf -X POST "$BASE/query" \
    -d '{"db":"example","statement":"let pricey = { fst(p) | p <- parts, snd(p) >= 55 }"}' \
    | grep -q '"bound":"pricey"'
curl -sf -X POST "$BASE/query" -d '{"db":"example","statement":"{ x | x <- pricey }"}' \
    | grep -q '"value":"{4, 5}"'

# budget admission control rejects with 422, leaving the session intact
STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/query" \
    -d '{"db":"example","statement":"{ p | p <- parts }","budget":{"time_ms":0}}')"
[ "$STATUS" = "422" ] || { echo "expected 422 on zero budget, got $STATUS"; exit 1; }
curl -sf "$BASE/stats" | grep -q '"errors":1'

# hostile nesting: a 100 000-deep JSON body is a 400 and a 100 000-deep
# statement a 422 (parse errors, not a stack overflow), and the server
# keeps serving
DEEP_JSON="$(mktemp)"
DEEP_STMT="$(mktemp)"
head -c 100000 /dev/zero | tr '\0' '[' >"$DEEP_JSON"
{
    printf '{"db":"example","statement":"'
    head -c 100000 /dev/zero | tr '\0' '('
    printf '1'
    head -c 100000 /dev/zero | tr '\0' ')'
    printf '"}'
} >"$DEEP_STMT"
STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/query" --data-binary "@$DEEP_JSON")"
[ "$STATUS" = "400" ] || { echo "expected 400 on a deep JSON body, got $STATUS"; exit 1; }
STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/query" --data-binary "@$DEEP_STMT")"
[ "$STATUS" = "422" ] || { echo "expected 422 on a deep statement, got $STATUS"; exit 1; }
rm -f "$DEEP_JSON" "$DEEP_STMT"
curl -sf "$BASE/healthz" | grep -q '"status":"serving"'

# graceful shutdown: the server must acknowledge and exit 0 on its own.
# The wait is bounded, so a lost accept wake fails here instead of hanging.
curl -sf -X POST "$BASE/shutdown" | grep -q 'shutting down'
SERVER_EXIT=0
if timeout 10 tail --pid="$SERVER_PID" -f /dev/null; then
    wait "$SERVER_PID" || SERVER_EXIT=$?
else
    echo "server did not exit within 10 s of POST /shutdown; log:"
    cat "$LOG"
    exit 1
fi
trap - EXIT
if [ "$SERVER_EXIT" -ne 0 ]; then
    echo "server exited non-zero ($SERVER_EXIT); log:"
    cat "$LOG"
    exit 1
fi
grep -q "shut down cleanly" "$LOG"
echo "server smoke OK"
