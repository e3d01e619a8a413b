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
# train-bench's, train-bench-kill's, closed-loop's, rebalance-bench's and
# tiered-bench's are compared at --tolerance 0, so the metered PS traffic,
# the tier's reads, the staleness count of a crashed attempt, the migration
# stream's bytes and the streaming plane's overlay rows, alias repairs and
# cache invalidations are pinned exactly);
# serve-under-update's counters
# follow its updater thread's timing. A row whose baseline is `clean-run`
# is compared against its own shape run without the fault flags: an unarmed
# plane is the fault-free run, so every value the clean run publishes must
# come out equal (the extra `chaos.*` series, all zero, are the current
# run's alone). A row whose baseline is `min-speedup X` checks no baseline
# file: it fails unless the run prints a modelled speedup over 1 worker of
# at least X. That bound is wall clock (a worker's busy time is measured),
# so it lives here and not in the test suite. A row whose baseline is
# `fails-within S TEXT` must fail: the command exits non-zero inside S
# seconds and prints TEXT on stderr (no metrics JSON is written, so none is
# checked). `train-bench-deadline` is such a row: one worker's send passes
# its retry deadline while the other waits at a cut, and the run must end
# with that error instead of hanging.
#
# When both the train-bench and train-bench-kill rows ran, their checkpoint
# files are compared byte for byte: a checkpoint is a function of the seed
# and the cut, so the killed run writes the clean run's bytes at step 4
# (before the kill) and at step 8 (after the restore).
#
# The baselines pin counters, and no counter depends on a parameter value,
# so each row that prints a model fingerprint must also print the one
# pinned in `pins` below: model bits are checked, not only meters. A
# killed run restores to its clean run's model, a faulted run's model is
# the fault-free one's, and a checkpoint applies nothing, so a run's model
# does not depend on how often it checkpoints: those rows share a value.
#
#   ci/smoke.sh            run every row
#   ci/smoke.sh <name>...  run the named rows
set -euo pipefail
cd "$(dirname "$0")/.."
out="${RUNNER_TEMP:-$(mktemp -d)}"

# The benchmark harness in perf/ is a package of its own, frozen between
# benchmark changes, that calls the library: build it first, so a library
# API change that breaks it fails here rather than at the next benchmark
# run. A build only: it runs no workload and checks no number.
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml

# name | command | args | expected series prefixes | baseline [compare flags]
table="
train-bench          | train-bench        | --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 --checkpoint-dir $out/train-bench-ckpts | storage. sampling. runtime.ps. | BENCH_train.json --tolerance 0
train-bench-unarmed  | train-bench        | --fault-seed 42 --drop-rate 0 --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 | storage. sampling. runtime.ps. | clean-run --tolerance 0
train-bench-chaos    | train-bench        | --fault-seed 42 --drop-rate 0.2 --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 | chaos.faults_injected chaos.retries |
train-bench-kill     | train-bench        | --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 --checkpoint-dir $out/train-bench-kill-ckpts --kill-worker 1 --kill-at-step 5 | chaos.faults_injected runtime.ps. | BENCH_train_kill.json --tolerance 0
train-bench-ckpt-every | train-bench      | --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 --checkpoint-dir $out/train-bench-ckpt-every-ckpts --checkpoint-every 1 | storage. sampling. runtime.ps. | BENCH_train.json --tolerance 0
train-bench-scaling  | train-bench        | --workers 4 --epochs 2 --scale 0.01 --batches 16 --batch 16 --dim 16 | runtime.ps. | min-speedup 2
train-bench-stale-kill | train-bench      | --workers 2 --scale 0.005 --batches 4 --batch 8 --dim 8 --staleness 2 --epochs 3 --checkpoint-every 3 --checkpoint-dir $out/train-bench-stale-kill-ckpts --kill-worker 1 --kill-at-step 7 | chaos.faults_injected runtime.ps. | BENCH_train_stale_kill.json --tolerance 0
serve-bench          | serve-bench        | --requests 1000 --clients 2 --workers 2 --scale 0.05 | serving.requests serving.latency_ns |
serve-under-update   | serve-under-update | --requests 200000 --clients 2 --workers 2 --scale 0.02 --update-every-ms 1 --slo-p99-ms 250 | streaming.ingest. streaming.serve.latency_ns streaming.epoch streaming.cache | BENCH_serve_under_update.json --presence-only
serve-under-update-chaos | serve-under-update | --fault-seed 42 --drop-rate 0.2 --requests 200000 --clients 2 --workers 2 --scale 0.02 --update-every-ms 1 --slo-p99-ms 250 | streaming.ingest.lag_ticks chaos.faults_injected |
closed-loop          | closed-loop        | --cycles 4 --seed 42 --slo-freshness-ticks 200 | loop.freshness_ticks loop.cycles streaming.ingest. runtime.ps. | BENCH_closed_loop.json --tolerance 0
closed-loop-chaos    | closed-loop        | --cycles 2 --seed 42 --fault-seed 7 --drop-rate 0.2 --slo-freshness-ticks 200 | loop.freshness_ticks chaos.faults_injected |
rebalance-bench      | rebalance-bench    | --workers 4 --epochs 3 --scale 0.01 --merge 1 | topology.migration. | BENCH_rebalance.json --tolerance 0
rebalance-bench-chaos | rebalance-bench   | --workers 4 --epochs 3 --scale 0.01 --fault-seed 7 --drop-rate 0.2 | topology.migration. chaos.faults_injected |
tiered-bench         | tiered-bench       | --scale 10 --workers 4 --resident-budget 500000 | tier.reads tier.resident_bytes tier.segment_bytes tier.io. tier.admit | BENCH_tiered_storage.json --tolerance 0
train-bench-deadline | train-bench        | --workers 2 --fault-seed 3 --drop-rate 0.9 | | fails-within 40 retry deadline exhausted
"

ran=0
ran_rows=" "
while IFS='|' read -r name command args prefixes baseline; do
    name="$(echo $name)"
    [ -n "$name" ] || continue
    if [ $# -gt 0 ] && [[ " $* " != *" $name "* ]]; then
        continue
    fi
    json="$out/$name-metrics.json"
    echo "== smoke: $name"
    read -r baseline_file compare_flags <<<"$baseline"
    if [ "$baseline_file" = fails-within ]; then
        read -r bound expected <<<"$compare_flags"
        cargo build --release -q -p aligraph-cli
        status=0
        # shellcheck disable=SC2086
        timeout "$bound" cargo run --release -q -p aligraph-cli -- $command $args \
            2>"$out/$name.err" || status=$?
        cat "$out/$name.err"
        if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] || ! grep -qF "$expected" "$out/$name.err"; then
            echo "smoke: $name exited $status (124 = still running after ${bound}s); a non-zero exit printing '$expected' was required" >&2
            exit 1
        fi
        echo "smoke: $name failed as required (exit $status)"
        ran=$((ran + 1))
        ran_rows+="$name "
        continue
    fi
    # shellcheck disable=SC2086  # the table's args and prefixes are word lists
    cargo run --release -q -p aligraph-cli -- $command $args --metrics-json "$json" | tee "$out/$name.txt"
    # shellcheck disable=SC2086
    python3 ci/check_metrics_json.py "$json" --command $command \
        $(printf -- '--expect-prefix %s ' $prefixes)
    if [ "$baseline_file" = min-speedup ]; then
        awk -v min="$compare_flags" '/^modeled speedup vs 1 worker:/ { found = 1; ok = $NF + 0 >= min + 0; print "smoke: modeled speedup " $NF ", at least " min "x required" }
            END { exit !(found && ok) }' "$out/$name.txt"
        baseline_file=""
    fi
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
    ran_rows+="$name "
done <<<"$table"

if [[ "$ran_rows" == *" train-bench "* && "$ran_rows" == *" train-bench-kill "* ]]; then
    for ckpt in ckpt-0000000004.bin ckpt-0000000008.bin; do
        cmp "$out/train-bench-ckpts/$ckpt" "$out/train-bench-kill-ckpts/$ckpt"
        echo "smoke: $ckpt identical in the clean and killed runs"
    done
fi

# name | the line its output must contain
pins="
train-bench            | model fingerprint 73874c5754074cf9
train-bench-kill       | model fingerprint 73874c5754074cf9
train-bench-ckpt-every | model fingerprint 73874c5754074cf9
train-bench-unarmed    | model fingerprint 73874c5754074cf9
train-bench-chaos      | model fingerprint 73874c5754074cf9
train-bench-stale-kill | model fingerprint e150d5dbf230007f
closed-loop            | final model: version 5  fingerprint ca070dae8bcb3bae
tiered-bench           | fingerprint 6af11f3c37c9a787 (bit-exact vs all-hot)
tiered-bench           | fingerprint 623febd03536ad30 (bit-exact vs all-hot)
tiered-bench           | fingerprint f600cc468e2891bf (bit-exact vs all-hot)
"
while IFS='|' read -r name line; do
    name="$(echo $name)"
    line="$(sed -E 's/^ +| +$//g' <<<"$line")"
    [[ -n "$name" && "$ran_rows" == *" $name "* ]] || continue
    if ! grep -qF -- "$line" "$out/$name.txt"; then
        echo "smoke: $name did not print '$line'" >&2
        exit 1
    fi
    echo "smoke: $name printed '$line'"
done <<<"$pins"

[ "$ran" -gt 0 ] || { echo "smoke: no row named: $*" >&2; exit 2; }
echo "smoke: $ran row(s) OK"
