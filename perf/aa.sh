#!/usr/bin/env bash
# A/A check of the benchmark against itself: two alternating sets of runs of
# the same build, one seed per run, for every workload.
#
#   perf/aa.sh [runs-per-set] [report]
#
# (default 5 runs; `report` skips the runs and rebuilds the table from the
# results of the last ones in perf/out/aa.jsonl)
#
# Prints, for each workload x end-to-end metric, both sets' medians and
# quartiles, each set's spread (quartile distance over median) and the
# relative gap between the medians; writes the table to perf/AA.md; fixes
# each bound in BENCHMARK.json as max(5 %, 3 x the widest gap, 3 x the widest
# spread seen for that metric, the bound already written), at most 25 %.
# Fails if two sets of one build disagree by more than a third of 10 %, or if
# a spread needs more than 25 %.
set -euo pipefail

runs="${1:-5}"
cd "$(dirname "$0")/.."
mkdir -p perf/out
results="perf/out/aa.jsonl"

mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

[ "${2:-}" = report ] || : > "$results"
for workload in "${workloads[@]}"; do
  [ "${2:-}" = report ] && break
  for ((seed = 1; seed <= runs; seed++)); do
    for set in A B; do
      echo "aa: $workload set $set seed $seed" >&2
      line=$("${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
      echo "{\"workload\": \"$workload\", \"set\": \"$set\", \"seed\": $seed, \"result\": $line}" >> "$results"
    done
  done
done

python3 - "$results" "$runs" <<'PY'
import json, statistics, sys

results, runs = sys.argv[1], int(sys.argv[2])
rows = [json.loads(line) for line in open(results)]
bench = json.load(open("BENCHMARK.json"))
bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]

def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3

widest = {m["name"]: 0.0 for m in bench["end_to_end"]}
widest_spread = dict(widest)
table = ["| workload | metric | unit | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | gap |",
         "|---|---|---|---|---|---|---|---|"]
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        cells, medians, spreads = [], [], []
        for s in "AB":
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in rows if r["workload"] == w["name"] and r["set"] == s]
            q1, med, q3 = quartiles(values)
            cells.append(f"{q1:.4g} / {med:.4g} / {q3:.4g}")
            medians.append(med)
            spreads.append((q3 - q1) / med)
        gap = abs(medians[1] - medians[0]) / medians[0]
        widest[m["name"]] = max(widest[m["name"]], gap)
        widest_spread[m["name"]] = max(widest_spread[m["name"]], *spreads)
        table.append(f"| {w['name']} | {m['name']} | {m['unit']} | {cells[0]} | {cells[1]} "
                     f"| {spreads[0]:.2%} | {spreads[1]:.2%} | {gap:.2%} |")

# The issue's rule: a bound clears the gap between two sets of runs of one
# build three times over, and is refused above 10 %. The driver's rule: the
# spread across seeds inside one set stays under a third of the bound, and a
# bound is at most 25 %. The second asks for more on this box.
gap_bounds = {name: max(0.05, 3 * widest[name]) for name in widest}
# A bound only widens: a quiet hour does not take back what a busy hour needed.
written = {m["name"]: m["bound"] for m in bench["end_to_end"]}
bounds = {name: min(0.25, max(gap_bounds[name], 3 * widest_spread[name], written[name])) for name in widest}
# Set-up is timed three times a run, not fifty, and its spread across seeds
# is not gated: it gets the largest of the other bounds.
bounds["setup_s"] = max(gap_bounds["setup_s"], *(b for n, b in bounds.items() if n != "setup_s"))
summary = ["| metric | widest gap | max(5 %, 3 x gap) | widest spread | bound |", "|---|---|---|---|---|"]
summary += [f"| {name} | {widest[name]:.2%} | {gap_bounds[name]:.2%} | {widest_spread[name]:.2%} "
            f"| {bounds[name]:.2%} |" for name in widest]
report = "\n".join(
    ["# A/A: two sets of runs of one build", "",
     f"`perf/aa.sh {runs}`: {runs} runs per set and workload (seeds 1..{runs}), sets alternating, "
     f"{bench['run_seconds']} s measured per run. Spread is the distance between the first and third "
     "quartile over the median; gap is the distance between the two medians over the first.", ""]
    + table + [""] + summary + [""])
print(report)
open("perf/AA.md", "w").write(report)

if bad:
    sys.exit(f"aa: {len(bad)} runs failed an output check or an operation")
over = {n: b for n, b in gap_bounds.items() if b > 0.10}
if over:
    sys.exit(f"aa: two sets of one build differ by more than a third of 10 %: {over}: "
             "lengthen the rounds or move the metric to per_layer")
wide = {n: s for n, s in widest_spread.items() if n != "setup_s" and s > bounds[n]}
if wide:
    sys.exit(f"aa: spreads above the widest bound allowed: {wide}")

text = open("BENCHMARK.json").read()
for m in bench["end_to_end"]:
    old = json.dumps(m)
    m["bound"] = round(bounds[m["name"]], 3)
    text = text.replace(old, json.dumps(m))
open("BENCHMARK.json", "w").write(text)
PY
