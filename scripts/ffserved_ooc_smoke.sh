#!/usr/bin/env bash
# Out-of-core end-to-end smoke test: serve a table whose decoded size
# exceeds GOMEMLIMIT through a small buffer pool, drive a concurrent
# query storm, and require correct answers, moving pool counters, and a
# clean drain. This is the "table bigger than memory" claim exercised
# for real: 2M rows decode to ~56 MB while the daemon runs under
# GOMEMLIMIT=40MiB with an 8 MB pool.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== build =="
go build -o "$workdir/ffgen" ./cmd/ffgen
go build -o "$workdir/ffserved" ./cmd/ffserved

echo "== generate (2M rows, ~56 MB decoded) =="
"$workdir/ffgen" -rows 2000000 -summary=false -table "$workdir/flights.ff"
ls -l "$workdir/flights.ff"

echo "== offline integrity check =="
"$workdir/ffgen" -verify "$workdir/flights.ff"

echo "== start daemon out-of-core under GOMEMLIMIT =="
addr="127.0.0.1:18081"
GOMEMLIMIT=40MiB "$workdir/ffserved" -addr "$addr" \
    -table "flights=$workdir/flights.ff" -pool-bytes $((8 * 1024 * 1024)) \
    -token "smoke=s3cret,delta=0.01,conc=8" &
server_pid=$!

for i in $(seq 1 50); do
    if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "ffserved died during startup" >&2; exit 1
    fi
    sleep 0.2
done
curl -sf "http://$addr/healthz" | grep -q '"ok"'

echo "== query storm (3 waves x 8 concurrent) =="
queries=(
    'SELECT AVG(DepDelay) FROM flights GROUP BY Airline WITHIN 5%'
    'SELECT AVG(DepDelay) FROM flights WHERE Origin = '"'"'ORD'"'"' WITHIN 5%'
    'SELECT COUNT(*) FROM flights WHERE DepTime > 1500 WITHIN 10%'
    'SELECT SUM(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 10%'
    'SELECT AVG(DepDelay) FROM flights GROUP BY Origin WITHIN 10%'
    'SELECT AVG(DepTime) FROM flights WHERE DayOfWeek = '"'"'Sat'"'"' WITHIN 10%'
    'SELECT COUNT(*) FROM flights WHERE DepDelay > 60 WITHIN 10%'
    'SELECT AVG(DepDelay) FROM flights WITHIN 2%'
)
for wave in 1 2 3; do
    pids=()
    for i in "${!queries[@]}"; do
        out="$workdir/storm_${wave}_${i}.json"
        curl -sf "http://$addr/v1/query" -H 'Authorization: Bearer s3cret' \
            -d "{\"sql\": \"${queries[$i]}\"}" -o "$out" &
        pids+=($!)
    done
    for pid in "${pids[@]}"; do wait "$pid"; done
done
for f in "$workdir"/storm_*.json; do
    grep -q '"groups"' "$f" || { echo "no result in $f:" >&2; cat "$f" >&2; exit 1; }
done
echo "storm: $(ls "$workdir"/storm_*.json | wc -l) answers, all with groups"

echo "== pool counters visible and moving =="
curl -sf "http://$addr/v1/stats" -H 'Authorization: Bearer s3cret' | tee "$workdir/stats.out"
echo
bp=$(grep -o '"buffer_pool":{[^}]*}' "$workdir/stats.out")
[ -n "$bp" ] || { echo "no buffer_pool object in /v1/stats" >&2; exit 1; }
misses=$(echo "$bp" | grep -o '"misses":[0-9]*' | cut -d: -f2)
evictions=$(echo "$bp" | grep -o '"evictions":[0-9]*' | cut -d: -f2)
budget=$(echo "$bp" | grep -o '"budget_bytes":[0-9]*' | cut -d: -f2)
[ "$budget" = "$((8 * 1024 * 1024))" ] || { echo "budget_bytes=$budget, want 8 MiB" >&2; exit 1; }
[ "${misses:-0}" -gt 0 ] || { echo "pool misses=0: nothing was paged" >&2; exit 1; }
[ "${evictions:-0}" -gt 0 ] || { echo "pool evictions=0: budget never bound" >&2; exit 1; }
echo "pool: misses=$misses evictions=$evictions under budget=$budget"

echo "== no pin left, charge within the budget =="
# The sign is matched too: a negative charge must fail the range check,
# not read as its digits.
pinned=$(echo "$bp" | grep -oE '"pinned_frames":-?[0-9]+' | cut -d: -f2)
used=$(echo "$bp" | grep -oE '"used_bytes":-?[0-9]+' | cut -d: -f2)
[ -n "$pinned" ] && [ -n "$used" ] || { echo "no pinned_frames or used_bytes in buffer_pool" >&2; exit 1; }
[ "$pinned" -eq 0 ] || { echo "pinned_frames=$pinned with no query running: a leaked pin" >&2; exit 1; }
if [ "$used" -lt 0 ] || [ "$used" -gt "$budget" ]; then
    echo "used_bytes=$used outside [0, budget_bytes=$budget] with nothing pinned" >&2; exit 1
fi
echo "pool: pinned_frames=$pinned used_bytes=$used"

echo "== SIGTERM drains cleanly =="
kill -TERM "$server_pid"
for i in $(seq 1 50); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "ffserved still running after SIGTERM" >&2; exit 1
fi
wait "$server_pid"

echo "ffserved out-of-core smoke: OK"
