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

# strings that need escaping come back byte for byte: bind a relation
# whose strings hold a backslash and a non-ASCII character, then read it
# back through an engine-served statement; the whole body must match
curl -sf -X POST "$BASE/query" \
    -d '{"db":"example","statement":"let labels = { (1, \"back\\slash\"), (2, \"café\") }"}' \
    | grep -q '"bound":"labels"'
out="$(curl -sf -X POST "$BASE/query" \
    -d '{"db":"example","statement":"{ (snd(l), fst(l)) | l <- labels, fst(l) <= 2 }"}')"
WANT='{"ok":true,"db":"example","value":"{(\"back\\\\slash\", 1), (\"café\", 2)}","type":"{(string * int)}","route":"engine","bound":null}'
[ "$out" = "$WANT" ] || { echo "bad escaped result: $out"; exit 1; }

# a `let` with a literal value is planned by substitution and engine-served
LET='let k = 2 in { fst(r) | r <- parts, fst(r) <= k }'
out="$(curl -sf -X POST "$BASE/query" -d "{\"db\":\"example\",\"statement\":\"$LET\"}")"
echo "$out" | grep -q '"value":"{1, 2}"' || { echo "bad let result: $out"; exit 1; }
echo "$out" | grep -q '"route":"engine"' || { echo "let not engine-served: $out"; exit 1; }

# budget admission control rejects with 422, leaving the session intact
STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/query" \
    -d '{"db":"example","statement":"{ p | p <- parts }","budget":{"time_ms":0}}')"
[ "$STATUS" = "422" ] || { echo "expected 422 on zero budget, got $STATUS"; exit 1; }
curl -sf "$BASE/stats" | grep -q '"errors":1'

# the expand-then-filter statement is engine-served, and a denotation
# budget of 1 rejects it with 422 (both surviving parts have several worlds)
EXPAND='{ w | r <- options, w <- toset(normalize(r)), fst(w) < 3 }'
curl -sf -X POST "$BASE/query" -d "{\"db\":\"example\",\"statement\":\"$EXPAND\"}" \
    | grep -q '"route":"engine"'
STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/query" \
    -d "{\"db\":\"example\",\"statement\":\"$EXPAND\",\"budget\":{\"denotations\":1}}")"
[ "$STATUS" = "422" ] || { echo "expected 422 over the denotation budget, got $STATUS"; exit 1; }
curl -sf "$BASE/stats" | grep -q '"errors":2'

# the `keyed` binding's head reads the row, so it α-expands inside a
# projection: a denotation budget of 1 rejects it with 422, and a budget
# of 4 (part 1's four worlds) admits it on the engine with the binding's
# answer
KEYED='{ (fst(r), w) | r <- options, w <- toset(normalize(r)) }'
BODY="$(mktemp)"
STATUS="$(curl -s -o "$BODY" -w '%{http_code}' -X POST "$BASE/query" \
    -d "{\"db\":\"example\",\"statement\":\"$KEYED\",\"budget\":{\"denotations\":1}}")"
[ "$STATUS" = "422" ] || { echo "expected 422 over the denotation budget, got $STATUS"; exit 1; }
grep -q 'or-expansion budget' "$BODY" || { echo "bad budget error: $(cat "$BODY")"; exit 1; }
rm -f "$BODY"
out="$(curl -sf -X POST "$BASE/query" \
    -d "{\"db\":\"example\",\"statement\":\"$KEYED\",\"budget\":{\"denotations\":4}}")"
echo "$out" | grep -q '"route":"engine"' || { echo "keyed not engine-served under a budget: $out"; exit 1; }
WANT="$(echo "$out" | sed 's/.*"value":"\([^"]*\)".*/\1/')"
curl -sf -X POST "$BASE/query" -d '{"db":"example","statement":"{ c | c <- keyed }"}' \
    | grep -qF "\"value\":\"$WANT\"" || { echo "keyed binding disagrees: $WANT"; exit 1; }
curl -sf "$BASE/stats" | grep -q '"errors":3'

# the `choices` binding's head drops the part id below the expansion and
# adds to an or-set component: the same answer, engine-served
CHOICES='{ (fst(snd(w)), snd(snd(w)) + 1) | r <- options, w <- toset(normalize(r)) }'
WANT='{(1, 11), (1, 21), (2, 11), (2, 21), (3, 31), (3, 41), (5, 51), (6, 51)}'
out="$(curl -sf -X POST "$BASE/query" -d "{\"db\":\"example\",\"statement\":\"$CHOICES\"}")"
echo "$out" | grep -qF "\"value\":\"$WANT\"" || { echo "bad choices result: $out"; exit 1; }
echo "$out" | grep -q '"route":"engine"' || { echo "choices not engine-served: $out"; exit 1; }
curl -sf -X POST "$BASE/query" -d '{"db":"example","statement":"{ c | c <- choices }"}' \
    | grep -qF "\"value\":\"$WANT\""

# the `colour_one` binding's `ormember` guard is engine-served: one fused
# membership step over each row's colour or-set
MEMBER='{ fst(r) | r <- options, ormember(1, fst(snd(r))) }'
out="$(curl -sf -X POST "$BASE/query" -d "{\"db\":\"example\",\"statement\":\"$MEMBER\"}")"
echo "$out" | grep -qF '"value":"{1}"' || { echo "bad ormember result: $out"; exit 1; }
echo "$out" | grep -q '"route":"engine"' || { echo "ormember not engine-served: $out"; exit 1; }
curl -sf -X POST "$BASE/query" -d '{"db":"example","statement":"{ c | c <- colour_one }"}' \
    | grep -qF '"value":"{1}"'

# the `far_bins` binding: a dependent generator whose guards read the
# element and the row, engine-served
DEPENDENT='{ (fst(r), b) | r <- bins, b <- snd(r), b > 2, b > fst(r) + 1 }'
WANT='{(1, 3), (1, 7), (2, 7), (2, 9), (4, 8)}'
out="$(curl -sf -X POST "$BASE/query" -d "{\"db\":\"example\",\"statement\":\"$DEPENDENT\"}")"
echo "$out" | grep -qF "\"value\":\"$WANT\"" || { echo "bad dependent result: $out"; exit 1; }
echo "$out" | grep -q '"route":"engine"' || { echo "dependent not engine-served: $out"; exit 1; }
curl -sf -X POST "$BASE/query" -d '{"db":"example","statement":"{ c | c <- far_bins }"}' \
    | grep -qF "\"value\":\"$WANT\""

# the `high_bins` binding: a dependent generator whose row nothing reads
# afterwards, engine-served
DEAD_ROW='{ b | r <- bins, b <- snd(r), b > 2 }'
out="$(curl -sf -X POST "$BASE/query" -d "{\"db\":\"example\",\"statement\":\"$DEAD_ROW\"}")"
echo "$out" | grep -qF '"value":"{3, 7, 8, 9}"' || { echo "bad dead-row result: $out"; exit 1; }
echo "$out" | grep -q '"route":"engine"' || { echo "dead-row not engine-served: $out"; exit 1; }
curl -sf -X POST "$BASE/query" -d '{"db":"example","statement":"{ c | c <- high_bins }"}' \
    | grep -qF '"value":"{3, 7, 8, 9}"'

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
