#!/bin/sh
# Distributed-solver smoke test: run cpd with -procs 2 over the TCP loopback
# transport, scrape the adatm_dist_* series and process 0's adatm_cpd_* loop
# series from the held debug server, read its /run snapshot and -progress
# lines, and require the partition decision in the audit ledger. Exercises
# the partition model, the real wire transport, the stop vote that carries
# Progress, and the dist metrics wiring end to end. A sharded -checkpoint
# must fail with the library's own error.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/tensorgen" ./cmd/tensorgen
go build -o "$tmp/cpd" ./cmd/cpd

"$tmp/tensorgen" -dims 24x24x24 -nnz 2000 -seed 11 -out "$tmp/dist.tns"

# The plan path must print the scored partitioner table without running.
"$tmp/cpd" -in "$tmp/dist.tns" -rank 4 -procs 2 -plan >"$tmp/plan" 2>/dev/null
grep -q "chosen" "$tmp/plan" || { echo "dist-smoke: -plan missing chosen marker"; cat "$tmp/plan"; exit 1; }

"$tmp/cpd" -in "$tmp/dist.tns" -rank 4 -iters 3 \
    -procs 2 -transport tcp \
    -listen 127.0.0.1:0 -hold -progress \
    -auditfile "$tmp/audit.jsonl" \
    >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!

# The resolved address is announced on stderr once the listener is up.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*debug server listening on http://##p' "$tmp/stderr" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "dist-smoke: cpd exited early"; cat "$tmp/stderr"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "dist-smoke: debug server never announced its address"; cat "$tmp/stderr"; exit 1; }

# Wait for the run to finish so the scrape sees final counter values.
for _ in $(seq 1 300); do
    grep -q "holding debug server" "$tmp/stderr" && break
    kill -0 "$pid" 2>/dev/null || { echo "dist-smoke: cpd exited before holding"; cat "$tmp/stderr"; exit 1; }
    sleep 0.1
done

curl -fsS "http://$addr/metrics" >"$tmp/metrics"
for series in adatm_dist_volume_bytes adatm_dist_messages_total \
    adatm_dist_fold_seconds_total adatm_dist_retries_total; do
    grep -q "$series" "$tmp/metrics" || { echo "dist-smoke: /metrics missing $series"; cat "$tmp/metrics"; exit 1; }
done
# A sharded run is the single-node loop per process: process 0 exports the
# same iteration, fit and phase series a single-node run does.
grep -q '^adatm_cpd_iterations_total [1-9]' "$tmp/metrics" \
    || { echo "dist-smoke: /metrics missing adatm_cpd_iterations_total"; grep adatm_cpd "$tmp/metrics"; exit 1; }
grep -q 'adatm_cpd_phase_seconds_count{phase="solve"}' "$tmp/metrics" \
    || { echo "dist-smoke: /metrics missing the solve phase histogram"; grep adatm_cpd "$tmp/metrics"; exit 1; }
# The series must carry the partition/transport labels the run resolved to.
grep -q 'adatm_dist_messages_total{partition="[a-z-]*",transport="tcp"}' "$tmp/metrics" \
    || { echo "dist-smoke: dist series missing partition/transport labels"; grep adatm_dist "$tmp/metrics"; exit 1; }

# /run carries the sharded run's iterations, and -progress printed them.
curl -fsS "http://$addr/run" >"$tmp/run"
grep -q '"iter": *[1-9]' "$tmp/run" || { echo "dist-smoke: /run reports no iteration"; cat "$tmp/run"; exit 1; }
grep -q '^iter   1  fit' "$tmp/stderr" || { echo "dist-smoke: -progress printed no iteration"; cat "$tmp/stderr"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# The run summary must report the dist line with nonzero traffic.
grep -q '^dist procs=2 ' "$tmp/stdout" || { echo "dist-smoke: stdout missing dist summary"; cat "$tmp/stdout"; exit 1; }
grep -q 'messages=0' "$tmp/stdout" && { echo "dist-smoke: P=2 run sent no messages"; cat "$tmp/stdout"; exit 1; }

# The decision ledger must be valid JSONL and carry the partition decision.
go run ./scripts/jsonlcheck "$tmp/audit.jsonl" || { echo "dist-smoke: audit ledger invalid"; cat "$tmp/audit.jsonl"; exit 1; }
grep -q '"dist.partition"' "$tmp/audit.jsonl" || { echo "dist-smoke: ledger missing dist.partition event"; cat "$tmp/audit.jsonl"; exit 1; }
grep -q '"partition_candidates"' "$tmp/audit.jsonl" || { echo "dist-smoke: ledger missing scored candidates"; cat "$tmp/audit.jsonl"; exit 1; }

# A sharded run refuses checkpointing with the library's error, naming it.
if "$tmp/cpd" -in "$tmp/dist.tns" -rank 4 -iters 2 -procs 2 -checkpoint "$tmp/ck" >/dev/null 2>"$tmp/ckerr"; then
    echo "dist-smoke: -procs 2 -checkpoint succeeded"; exit 1
fi
grep -q 'Checkpoint' "$tmp/ckerr" || { echo "dist-smoke: -checkpoint error does not name Checkpoint"; cat "$tmp/ckerr"; exit 1; }

echo "dist-smoke: OK ($(grep -c adatm_dist "$tmp/metrics") dist metric lines, $(wc -l <"$tmp/audit.jsonl") ledger records)"
