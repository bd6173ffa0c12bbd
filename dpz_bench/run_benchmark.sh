#!/usr/bin/env bash
# Runs the dpz_bench workloads named in BENCHMARK.json, each in its own
# process (so peak_rss_mb is per workload), and prints every metric in
# one listing.
#
#   dpz_bench/run_benchmark.sh [--sets=N] [--seed=S] [--seconds=T]
#                              [--trace] [--workload=NAME]
#
# --sets=N runs every workload N times with seeds S, S+1, ..., S+N-1 and
# reports, per metric, the median, the quartiles and the spread
# (interquartile range over median) next to the bound BENCHMARK.json
# fixes for it. --trace runs the traced (per-layer) variant instead.
# Raw result lines are kept in .bench_build/results/.
set -euo pipefail
cd "$(dirname "$0")/.."

sets=1
seed=1
seconds=""
trace=0
only=""
for arg in "$@"; do
  case "$arg" in
    --sets=*) sets="${arg#*=}" ;;
    --seed=*) seed="${arg#*=}" ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --trace) trace=1 ;;
    --workload=*) only="${arg#*=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

spec_field() {
  python3 -c 'import json, sys
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"] if sys.argv[1] == "seconds"
      else " ".join(w["name"] for w in spec["workloads"]))' "$1"
}
seconds="${seconds:-$(spec_field seconds)}"
workloads="${only:-$(spec_field workloads)}"

results=".bench_build/results/$(date +%Y%m%d-%H%M%S).jsonl"
mkdir -p "$(dirname "$results")"
for w in $workloads; do
  for ((i = 0; i < sets; i++)); do
    s=$((seed + i))
    echo "== $w seed $s" >&2
    line=$(python3 dpz_bench/run.py --workload "$w" --seed "$s" \
             --seconds "$seconds" --trace "$trace" | tail -n 1)
    echo "{\"workload\": \"$w\", \"seed\": $s, \"result\": $line}" \
      >> "$results"
  done
done

python3 - "$results" <<'EOF'
import json
import statistics
import sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
runs = {}
for line in open(sys.argv[1]):
    row = json.loads(line)
    runs.setdefault(row["workload"], []).append(row["result"])

for workload, results in runs.items():
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} run(s), correct={correct}, "
          f"failed_op_ratio={failed / attempted:.6g}")
    names = list(results[0]["metrics"])
    if len(results) == 1:
        for name in names:
            m = results[0]["metrics"][name]
            print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}")
        continue
    print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>7s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "WIDER THAN BOUND")
        print(f"  {name:34s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%} {'' if bound is None else f'{bound:.2%}':>7s}"
              f" {verdict}")
EOF
