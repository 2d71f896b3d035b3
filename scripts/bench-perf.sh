#!/usr/bin/env bash
# bench-perf: run the repository benchmark (perfbench/run.py) once on
# its three workloads — sweep, serve and fleet — at seed 1 for 15 s
# each, as BENCHMARK.json runs it, and append the result to
# BENCH_perf.json as one sample under a label.
#
#   scripts/bench-perf.sh [LABEL [CHECKOUT]]
#
# LABEL names the code measured (default: the checkout's short HEAD
# commit). CHECKOUT is the source tree to benchmark (default: this
# repository); pointing it at a copy of another commit lets before and
# after samples share one results file. Ten pairs, alternating which
# side runs first:
#
#   p() { scripts/bench-perf.sh parent ../parent-checkout; }
#   c() { scripts/bench-perf.sh change; }
#   for i in 1 2 3 4 5; do p && c && c && p; done
#
# After each sample, .runs[LABEL].summary is recomputed: per workload
# and metric, the 25th, 50th and 75th percentiles over the label's
# samples (linear interpolation). The host's core count and Go version
# are recorded with each sample.
#
# It fails if a workload exits non-zero, prints no result, or reports
# correct != true or failed != 0. Times are recorded, never gated: on
# the 1–2 core hosts this runs on, a time bound would be noise.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
checkout=$(cd "${2:-$repo}" && pwd)
label=${1:-$(git -C "$checkout" rev-parse --short HEAD)}
out=$repo/BENCH_perf.json

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

workloads='{}'
for w in sweep serve fleet; do
  (cd "$checkout" && python3 perfbench/run.py --workload "$w" --seed 1 --seconds 15 --trace 0) \
    > "$tmp/$w.out"
  line=$(tail -n 1 "$tmp/$w.out")
  if ! jq -e '.correct == true and .failed == 0' <<< "$line" > /dev/null; then
    echo "bench-perf: $label $w did not run clean: $line" >&2
    exit 1
  fi
  workloads=$(jq --arg w "$w" --argjson r "$line" '.[$w] = $r' <<< "$workloads")
  echo "bench-perf: $label $w $(jq -c '.metrics | map_values(.value) | {setup_s, op_p50_ms, op_cpu_ms, op_alloc_mb}' <<< "$line")"
done

[ -f "$out" ] || echo '{"seed": 1, "seconds": 15, "runs": {}}' > "$out"
jq --arg name "$label" --argjson cores "$(nproc)" --arg go "$(go env GOVERSION)" --argjson w "$workloads" '
  def q($p): sort as $a | ($a | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $i
    | if $i + 1 < $n then $a[$i] + ($h - $i) * ($a[$i + 1] - $a[$i]) else $a[$i] end;
  .runs[$name].samples += [{cores: $cores, go: $go, workloads: $w}]
  | .runs[$name].samples as $s
  | .runs[$name].summary = ($s[0].workloads | keys_unsorted | map(. as $wl | {
      ($wl): (["setup_s", "op_p50_ms", "op_cpu_ms", "op_alloc_mb"] | map(. as $m
        | [$s[].workloads[$wl].metrics[$m].value] as $v
        | {($m): {p25: ($v | q(0.25)), p50: ($v | q(0.5)), p75: ($v | q(0.75))}}) | add)
    }) | add)
' "$out" > "$tmp/out.json"
mv "$tmp/out.json" "$out"
echo "bench-perf: OK -> $out (.runs[\"$label\"], $(jq --arg l "$label" '.runs[$l].samples | length' "$out") samples)"
