#!/usr/bin/env bash
# load-smoke: boot a two-worker figuresd fleet and drive a short mixed
# whole/param load through it with `figures load`, writing the
# machine-readable summary to BENCH_load.json and asserting the run
# was healthy: zero errors, non-zero achieved QPS, sane client-side
# quantiles, per-endpoint p50/p95/p99 on the workers' /stats,
# well-formed Prometheus exposition on /metrics, a retrievable
# /trace/{id} span for one of the load requests, and achieved QPS
# within 5% of the committed baseline (tracing on costs < 5%).
# CI runs exactly this via `make load-smoke`; humans run it the same
# way. Knobs (all optional): PORT1/PORT2, QPS, DURATION, WARMUP, OUT.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT1=${PORT1:-8241}
PORT2=${PORT2:-8242}
OUT=${OUT:-BENCH_load.json}
QPS=${QPS:-40}
DURATION=${DURATION:-5s}
WARMUP=${WARMUP:-2s}

# The committed baseline's achieved QPS, read before the run
# overwrites $OUT — the reference for the <5% regression gate below.
baseline_qps=""
if [ -f "$OUT" ]; then
  baseline_qps=$(jq -r '.achieved_qps // empty' "$OUT" 2>/dev/null || true)
fi

tmp=$(mktemp -d)
cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "load-smoke: FAILED (exit $status); worker logs:" >&2
    tail -5 "$tmp"/worker*.log >&2 2>/dev/null || true
  fi
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$tmp"
  exit "$status"
}
trap cleanup EXIT

go build -o "$tmp/figuresd" ./cmd/figuresd
go build -o "$tmp/figures" ./cmd/figures

# Each worker gets its own result cache so the warmup phase warms
# them and the measured phase exercises the read path.
"$tmp/figuresd" -addr "localhost:$PORT1" -cache-dir "$tmp/cache1" > "$tmp/worker1.log" 2>&1 &
"$tmp/figuresd" -addr "localhost:$PORT2" -cache-dir "$tmp/cache2" > "$tmp/worker2.log" 2>&1 &
for port in "$PORT1" "$PORT2"; do
  for _ in $(seq 1 50); do
    curl -fs "http://localhost:$port/healthz" > /dev/null && break
    sleep 0.2
  done
  curl -fs "http://localhost:$port/healthz" > /dev/null
done

"$tmp/figures" load -addr "localhost:$PORT1,localhost:$PORT2" \
  -qps "$QPS" -duration "$DURATION" -warmup "$WARMUP" \
  -mix whole:3,param:1 -param-points E2:k=3 -experiments E1,E7,E2 -o "$OUT"

# The run was healthy…
jq -e '.errors == 0' "$OUT" > /dev/null
jq -e '.achieved_qps > 0' "$OUT" > /dev/null
jq -e '.requests > 0' "$OUT" > /dev/null
# …both traffic kinds flowed with ordered client-side quantiles…
jq -e '.kinds.whole.latency.p50_ms > 0 and
       .kinds.whole.latency.p95_ms >= .kinds.whole.latency.p50_ms and
       .kinds.whole.latency.p99_ms >= .kinds.whole.latency.p95_ms' "$OUT" > /dev/null
jq -e '.kinds.param.requests > 0' "$OUT" > /dev/null
# …and the servers expose per-endpoint p50/p95/p99 on /stats.
for port in "$PORT1" "$PORT2"; do
  curl -fs "http://localhost:$port/stats" | jq -e \
    '.endpoints.experiment.p50_ms > 0 and
     .endpoints.experiment.p95_ms > 0 and
     .endpoints.experiment.p99_ms > 0 and
     .endpoints.param.count > 0' > /dev/null
done

# Both workers expose Prometheus text exposition on /metrics:
# well-formed # TYPE lines, and a nonzero cumulative _count for both
# endpoint classes (the same accumulators /stats renders as JSON).
for port in "$PORT1" "$PORT2"; do
  curl -fs "http://localhost:$port/metrics" > "$tmp/metrics$port.txt"
  grep -Eq '^# TYPE repro_request_duration_seconds histogram$' "$tmp/metrics$port.txt"
  grep -Eq '^# TYPE repro_requests_total counter$' "$tmp/metrics$port.txt"
  for endpoint in experiment param; do
    count=$(awk -v ep="endpoint=\"$endpoint\"" \
      '$1 ~ /^repro_request_duration_seconds_count\{/ && index($1, ep) { print $2; exit }' \
      "$tmp/metrics$port.txt")
    if [ -z "$count" ] || [ "$count" -eq 0 ]; then
      echo "load-smoke: /metrics on :$port has no $endpoint request count" >&2
      exit 1
    fi
  done
done

# One of the load harness's own request IDs resolves to a span on the
# worker that served it: the request/done bracket plus the per-request
# decisions the tracing layer journals.
trace_id=$(jq -r '.trace_samples[0].request_id // empty' "$OUT")
trace_target=$(jq -r '.trace_samples[0].target // empty' "$OUT")
if [ -z "$trace_id" ] || [ -z "$trace_target" ]; then
  echo "load-smoke: summary has no trace samples" >&2
  exit 1
fi
curl -fs "$trace_target/trace/$trace_id" | jq -e \
  --arg id "$trace_id" \
  '.id == $id and (.events | length >= 2)
   and (.events | map(.kind) | index("request") != null)
   and (.events | map(.kind) | index("done") != null)' > /dev/null

# The achieved-QPS trajectory: with tracing always on, the run must
# stay within 5% of the committed baseline. A missing or pre-tracing
# baseline (no achieved_qps) skips the gate rather than failing it.
achieved_qps=$(jq -r '.achieved_qps' "$OUT")
if [ -n "$baseline_qps" ]; then
  awk -v got="$achieved_qps" -v base="$baseline_qps" 'BEGIN {
    floor = base * 0.95
    if (got + 0 < floor) {
      printf "load-smoke: achieved %.1f qps, >5%% below baseline %.1f\n", got, base
      exit 1
    }
    printf "load-smoke: qps %.1f vs baseline %.1f (floor %.1f)\n", got, base, floor
  }'
else
  echo "load-smoke: no committed baseline, skipping qps regression gate"
fi

echo "load-smoke: OK ($(jq -r '.requests' "$OUT") requests," \
  "$(jq -r '.achieved_qps | round' "$OUT") qps achieved, 0 errors) -> $OUT"
