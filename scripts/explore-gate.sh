#!/usr/bin/env bash
# explore-gate: the deterministic equivalence gate for the memoized
# explorer, the only path E2, E4, E15 and E16 take. It asserts:
#
#   1. TestExhaustiveOracleMatchesRegistryBytes passes: the registry's
#      memoized E2 (k=4 Algorithm 1 sweep), E4 (Theorem 1.1's
#      collisions and execution graph, k=2..4), E15 (Theorem 1.2
#      checked on every interleaving) and E16 (k=5 Algorithm 1 sweep)
#      encode byte-identically in text, json and csv to the same
#      tables rendered from an exhaustive replay of every interleaving;
#   2. the counters `figures -v` prints for a fresh run of the four
#      (the `figures: explore <id> ...` stderr lines) match the
#      committed BENCH_explore.json baseline exactly — executions,
#      replays, states visited and states pruned. The serial memo is
#      deterministic, so any drift is a behaviour change, not noise;
#   3. each run replayed strictly fewer systems and visited strictly
#      fewer states than it accounted executions, and pruned at least
#      one subtree.
#
# It then reruns the explore microbenchmarks (the exhaustive oracle
# and the memoized explorer on E2's space) and rewrites
# BENCH_explore.json with the counters and ns/op, so the committed
# file tracks exploration throughput the way BENCH_load.json tracks
# serving latency. CI runs exactly this via `make explore-gate`;
# humans run it the same way. Knobs (all optional): OUT, TIMEOUT.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_explore.json}
TIMEOUT=${TIMEOUT:-10m}
IDS=(E2 E4 E15 E16)
FIELDS=(executions replays states_visited states_pruned)

# Baseline counters, read before the run overwrites $OUT. Bracket
# indexing, not .E2: jq lexes a bare `E2` as a malformed float
# exponent and rejects the whole filter.
declare -A base
if [ -f "$OUT" ]; then
  for id in "${IDS[@]}"; do
    for f in "${FIELDS[@]}"; do
      base[$id.$f]=$(jq -r --arg id "$id" --arg f "$f" '.experiments[$id][$f] // empty' "$OUT")
    done
  done
fi

tmp=$(mktemp -d)
cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "explore-gate: FAILED (exit $status)" >&2
    tail -5 "$tmp"/explore.log >&2 2>/dev/null || true
  fi
  rm -rf "$tmp"
  exit "$status"
}
trap cleanup EXIT

go test -count=1 -timeout "$TIMEOUT" -run '^TestExhaustiveOracleMatchesRegistryBytes$' ./internal/experiments

go build -o "$tmp/figures" ./cmd/figures
"$tmp/figures" -run "$(IFS=,; echo "${IDS[*]}")" -v -timeout "$TIMEOUT" \
  -o "$tmp/tables.txt" 2> "$tmp/explore.log"

# One counter line per freshly explored experiment:
#   figures: explore E2 visited=242 pruned=126 replays=146 executions=22080
counter() { # counter <id> <field>
  awk -v id="$1" -v field="$2=" \
    '$1 == "figures:" && $2 == "explore" && $3 == id {
       for (i = 4; i <= NF; i++) if (index($i, field) == 1) {
         sub(field, "", $i); print $i; exit
       }
     }' "$tmp/explore.log"
}

declare -A got
for id in "${IDS[@]}"; do
  got[$id.executions]=$(counter "$id" executions)
  got[$id.replays]=$(counter "$id" replays)
  got[$id.states_visited]=$(counter "$id" visited)
  got[$id.states_pruned]=$(counter "$id" pruned)
  for f in "${FIELDS[@]}"; do
    if [ -z "${got[$id.$f]}" ]; then
      echo "explore-gate: no $f counter for $id in the figures -v output" >&2
      exit 1
    fi
    # The counters are deterministic: pin every one of them.
    if [ -n "${base[$id.$f]:-}" ] && [ "${got[$id.$f]}" -ne "${base[$id.$f]}" ]; then
      echo "explore-gate: $id $f = ${got[$id.$f]}, baseline says ${base[$id.$f]}" >&2
      exit 1
    fi
  done
  if [ -z "${base[$id.executions]:-}" ]; then
    echo "explore-gate: no committed baseline for $id, skipping the counter pin"
  fi
  if [ "${got[$id.states_visited]}" -ge "${got[$id.executions]}" ] ||
     [ "${got[$id.replays]}" -ge "${got[$id.executions]}" ] ||
     [ "${got[$id.states_pruned]}" -eq 0 ]; then
    echo "explore-gate: $id memoization saved nothing:" \
      "${got[$id.replays]} replays, ${got[$id.states_visited]} states for ${got[$id.executions]} executions" >&2
    exit 1
  fi
  echo "explore-gate: $id ${got[$id.executions]} executions accounted from ${got[$id.replays]} replays" \
    "(${got[$id.states_visited]} states visited, ${got[$id.states_pruned]} pruned), pinned"
done

# The throughput half: the exhaustive oracle against the memoized
# explorer on the same E2 space.
go test -run='^$' -bench='^BenchmarkExplore(Exhaustive|Memoized)$' \
  -benchtime=1x . | tee "$tmp/bench.txt"
exhaustive_ns=$(awk '$1 ~ /^BenchmarkExploreExhaustive/ { print $3; exit }' "$tmp/bench.txt")
memoized_ns=$(awk '$1 ~ /^BenchmarkExploreMemoized/ { print $3; exit }' "$tmp/bench.txt")
if [ -z "$exhaustive_ns" ] || [ -z "$memoized_ns" ]; then
  echo "explore-gate: could not parse explore benchmark output" >&2
  exit 1
fi

experiments='{}'
for id in "${IDS[@]}"; do
  experiments=$(jq --arg id "$id" \
    --argjson e "${got[$id.executions]}" --argjson r "${got[$id.replays]}" \
    --argjson v "${got[$id.states_visited]}" --argjson p "${got[$id.states_pruned]}" \
    '.[$id] = {executions: $e, replays: $r, states_visited: $v, states_pruned: $p}' <<< "$experiments")
done
jq -n --argjson experiments "$experiments" \
  --argjson exhaustive_ns "$exhaustive_ns" --argjson memoized_ns "$memoized_ns" \
  '{
    experiments: $experiments,
    bench: {
      exhaustive_serial_ns_per_op: $exhaustive_ns,
      memoized_ns_per_op: $memoized_ns,
      speedup: (($exhaustive_ns / $memoized_ns * 10 | round) / 10)
    }
  }' > "$OUT"

echo "explore-gate: OK (tables byte-identical to the exhaustive oracle," \
  "counters pinned, $(jq -r '.bench.speedup' "$OUT")x memoized over exhaustive on E2) -> $OUT"
