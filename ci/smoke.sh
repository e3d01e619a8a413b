#!/usr/bin/env bash
# The CLI bench smokes, as one table. Each row runs
#   aligraph <command> <args> --metrics-json OUT/<name>-metrics.json
# then validates the JSON (schema, producing command, and for each expected
# prefix at least one series the run actually recorded into — a prefix
# whose series are all zero fails) and, where the row names a committed
# baseline, diffs the run against it with ci/compare_bench.py. A baseline
# row compares values unless it says --presence-only: train-bench,
# closed-loop, rebalance-bench and tiered-bench are seeded and their
# schedules pinned (every series that is not a wall clock repeats exactly;
# train-bench's, train-bench-kill's, closed-loop's and tiered-bench's are
# compared at --tolerance 0, so the metered PS traffic, the tier's reads,
# the staleness count of a crashed attempt and the streaming plane's
# overlay rows, alias repairs and cache invalidations are pinned exactly);
# serve-under-update's counters
# follow its updater thread's timing. A row whose baseline is `clean-run`
# is compared against its own shape run without the fault flags: an unarmed
# plane is the fault-free run, so every value the clean run publishes must
# come out equal (the extra `chaos.*` series, all zero, are the current
# run's alone).
#
#   ci/smoke.sh            run every row
#   ci/smoke.sh <name>...  run the named rows
set -euo pipefail
cd "$(dirname "$0")/.."
out="${RUNNER_TEMP:-$(mktemp -d)}"

# name | command | args | expected series prefixes | baseline [compare flags]
table="
train-bench          | train-bench        | --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 --checkpoint-dir $out/train-bench-ckpts | storage. sampling. runtime.ps. | BENCH_train.json --tolerance 0
train-bench-unarmed  | train-bench        | --fault-seed 42 --drop-rate 0 --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 | storage. sampling. runtime.ps. | clean-run --tolerance 0
train-bench-chaos    | train-bench        | --fault-seed 42 --drop-rate 0.2 --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 | chaos.faults_injected chaos.retries |
train-bench-kill     | train-bench        | --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 --checkpoint-dir $out/train-bench-kill-ckpts --kill-worker 1 --kill-at-step 5 | chaos.faults_injected runtime.ps. | BENCH_train_kill.json --tolerance 0
serve-bench          | serve-bench        | --requests 1000 --clients 2 --workers 2 --scale 0.05 | serving.requests serving.latency_ns |
serve-under-update   | serve-under-update | --requests 200000 --clients 2 --workers 2 --scale 0.02 --update-every-ms 1 --slo-p99-ms 250 | streaming.ingest. streaming.serve.latency_ns streaming.epoch streaming.cache | BENCH_serve_under_update.json --presence-only
serve-under-update-chaos | serve-under-update | --fault-seed 42 --drop-rate 0.2 --requests 200000 --clients 2 --workers 2 --scale 0.02 --update-every-ms 1 --slo-p99-ms 250 | streaming.ingest.lag_ticks chaos.faults_injected |
closed-loop          | closed-loop        | --cycles 4 --seed 42 --slo-freshness-ticks 200 | loop.freshness_ticks loop.cycles streaming.ingest. runtime.ps. | BENCH_closed_loop.json --tolerance 0
closed-loop-chaos    | closed-loop        | --cycles 2 --seed 42 --fault-seed 7 --drop-rate 0.2 --slo-freshness-ticks 200 | loop.freshness_ticks chaos.faults_injected |
rebalance-bench      | rebalance-bench    | --workers 4 --epochs 3 --scale 0.01 --merge 1 | topology.migration. | BENCH_rebalance.json
rebalance-bench-chaos | rebalance-bench   | --workers 4 --epochs 3 --scale 0.01 --fault-seed 7 --drop-rate 0.2 | topology.migration. chaos.faults_injected |
tiered-bench         | tiered-bench       | --scale 10 --workers 4 --resident-budget 500000 | tier.reads tier.resident_bytes tier.io. tier.admit | BENCH_tiered_storage.json --tolerance 0
"

ran=0
while IFS='|' read -r name command args prefixes baseline; do
    name="$(echo $name)"
    [ -n "$name" ] || continue
    if [ $# -gt 0 ] && [[ " $* " != *" $name "* ]]; then
        continue
    fi
    json="$out/$name-metrics.json"
    echo "== smoke: $name"
    # shellcheck disable=SC2086  # the table's args and prefixes are word lists
    cargo run --release -q -p aligraph-cli -- $command $args --metrics-json "$json"
    # shellcheck disable=SC2086
    python3 ci/check_metrics_json.py "$json" --command $command \
        $(printf -- '--expect-prefix %s ' $prefixes)
    read -r baseline_file compare_flags <<<"$baseline"
    if [ "$baseline_file" = clean-run ]; then
        baseline_file="$out/$name-clean-metrics.json"
        # shellcheck disable=SC2086,SC2001
        cargo run --release -q -p aligraph-cli -- $command \
            $(sed -E 's/--(fault-seed|drop-rate) [^ ]+//g' <<<"$args") --metrics-json "$baseline_file"
    fi
    if [ -n "$baseline_file" ]; then
        # shellcheck disable=SC2086
        python3 ci/compare_bench.py "$baseline_file" "$json" $compare_flags
    fi
    ran=$((ran + 1))
done <<<"$table"

[ "$ran" -gt 0 ] || { echo "smoke: no row named: $*" >&2; exit 2; }
echo "smoke: $ran row(s) OK"
