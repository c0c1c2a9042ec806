#!/usr/bin/env bash
# End-to-end smoke test for the ffserved daemon: generate a table,
# serve it, query it one-shot and streamed through ffquery's client
# mode, hit the ops endpoints, then SIGTERM and require a clean exit and
# a CPU profile (-cpuprofile) that pprof reads and that shows the scan.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== build =="
go build -o "$workdir/ffgen" ./cmd/ffgen
go build -o "$workdir/ffserved" ./cmd/ffserved
go build -o "$workdir/ffquery" ./cmd/ffquery

echo "== generate =="
"$workdir/ffgen" -rows 200000 -summary=false -table "$workdir/flights.ff"

echo "== start daemon =="
addr="127.0.0.1:18080"
"$workdir/ffserved" -addr "$addr" -table "flights=$workdir/flights.ff" \
    -token "smoke=s3cret,delta=0.01,budget=0.5,conc=4" -token "load=l0ad" \
    -usage-log "$workdir/usage.jsonl" -cpuprofile "$workdir/cpu.pprof" &
server_pid=$!

for i in $(seq 1 50); do
    if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "ffserved died during startup" >&2; exit 1
    fi
    sleep 0.2
done
curl -sf "http://$addr/healthz" | grep -q '"ok"'

echo "== one-shot via ffquery -url =="
"$workdir/ffquery" -url "http://$addr" -token s3cret -exact=false \
    "SELECT AVG(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 5%" | tee "$workdir/oneshot.out"
grep -q "plan:" "$workdir/oneshot.out"

echo "== streamed via ffquery -url -stream =="
"$workdir/ffquery" -url "http://$addr" -token s3cret -stream -exact=false \
    "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' GROUP BY Airline WITHIN 10%" | tee "$workdir/stream.out"
grep -q "round" "$workdir/stream.out"

echo "== parameterized query over the wire =="
curl -sf "http://$addr/v1/query" -H 'Authorization: Bearer s3cret' \
    -d '{"sql": "SELECT COUNT(*) FROM flights WHERE Origin = ? WITHIN 20%", "args": ["ORD"]}' \
    | tee "$workdir/params.out"
grep -q '"delta_charged":0.01' "$workdir/params.out"
# The wire result has one shape: the aggregate list and, per group, the
# aligned answers.
grep -q '"aggs":\["COUNT"\]' "$workdir/params.out"
grep -q '"groups":\[{"key":"","answers":\[{"lo":' "$workdir/params.out"
if grep -q '"avg"' "$workdir/params.out"; then
    echo "wire result still carries an \"avg\" key" >&2; exit 1
fi

echo
echo "== auth is enforced =="
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/query" \
    -d '{"sql": "SELECT COUNT(*) FROM flights WITHIN 20%"}')
[ "$code" = "401" ] || { echo "expected 401 without token, got $code" >&2; exit 1; }

echo "== stats =="
curl -sf "http://$addr/v1/stats" -H 'Authorization: Bearer s3cret' | tee "$workdir/stats.out"
grep -q '"smoke"' "$workdir/stats.out"

echo
echo "== whole-scramble scans for the CPU profile =="
end=$((SECONDS + 2))
while [ "$SECONDS" -lt "$end" ]; do
    curl -sf "http://$addr/v1/query" -H 'Authorization: Bearer l0ad' \
        -d '{"sql": "SELECT AVG(DepDelay) FROM flights GROUP BY Airline"}' >/dev/null
done

echo "== SIGTERM drains cleanly =="
kill -TERM "$server_pid"
for i in $(seq 1 50); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "ffserved still running after SIGTERM" >&2; exit 1
fi
wait "$server_pid"   # exits 0 on a clean drain

echo "== usage log flushed =="
[ -s "$workdir/usage.jsonl" ]
grep -q '"tenant":"smoke"' "$workdir/usage.jsonl"
wc -l "$workdir/usage.jsonl"

echo "== CPU profile flushed on drain =="
go tool pprof -top "$workdir/ffserved" "$workdir/cpu.pprof" > "$workdir/pprof.out"
head -n 12 "$workdir/pprof.out"
grep -q 'fastframe/internal/exec\.' "$workdir/pprof.out" || {
    echo "the CPU profile lists no fastframe/internal/exec function" >&2; exit 1
}

echo "ffserved smoke: OK"
