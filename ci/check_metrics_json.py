#!/usr/bin/env python3
"""Validate `aligraph <cmd> --metrics-json` output against the checked-in
key-presence schema (ci/metrics-schema.json). Stdlib only.

Usage:
    check_metrics_json.py METRICS.json [--command NAME] [--expect-prefix P]...

--command       assert the snapshot was produced by this subcommand
--expect-prefix assert at least one series whose name starts with P is
                *alive* — a non-zero `value` (counter, gauge) or `count`
                (histogram). Repeatable; this is how CI pins "a train-bench
                run reports storage, sampling, and runtime metrics in one
                snapshot". Registered-but-zero does not pass: a series that
                nothing ever records would otherwise guard dead code.
"""

import argparse
import json
import pathlib
import sys

SCHEMA = pathlib.Path(__file__).with_name("metrics-schema.json")


def fail(msg: str) -> None:
    sys.exit(f"check_metrics_json: FAIL: {msg}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("metrics", type=pathlib.Path)
    ap.add_argument("--command")
    ap.add_argument("--expect-prefix", action="append", default=[])
    args = ap.parse_args()

    schema = json.loads(SCHEMA.read_text())
    try:
        doc = json.loads(args.metrics.read_text())
    except json.JSONDecodeError as e:
        fail(f"{args.metrics}: not valid JSON: {e}")

    for key in schema["required"]:
        if key not in doc:
            fail(f"missing top-level key `{key}`")
    if doc["version"] != schema["version"]:
        fail(f"schema version {doc['version']}, expected {schema['version']}")
    if args.command and doc["command"] != args.command:
        fail(f"command `{doc['command']}`, expected `{args.command}`")
    if not isinstance(doc["metrics"], list):
        fail("`metrics` is not an array")

    names = []
    alive = []
    for i, m in enumerate(doc["metrics"]):
        where = f"metrics[{i}]"
        for key in schema["metric_required"]:
            if key not in m:
                fail(f"{where}: missing `{key}`")
        kind_keys = schema["kinds"].get(m["kind"])
        if kind_keys is None:
            fail(f"{where}: unknown kind `{m['kind']}`")
        for key in kind_keys:
            if key not in m:
                fail(f"{where} ({m['name']}, {m['kind']}): missing `{key}`")
        if not isinstance(m["labels"], dict):
            fail(f"{where}: `labels` is not an object")
        layer = m["name"].split(".", 1)[0]
        if layer not in schema["known_prefixes"]:
            fail(
                f"{where}: series `{m['name']}` has unknown layer prefix "
                f"`{layer}` (allowed: {schema['known_prefixes']}; extend the "
                "schema when adding a layer)"
            )
        names.append(m["name"])
        if m.get("count" if m["kind"] == "histogram" else "value", 0) != 0:
            alive.append(m["name"])

    for prefix in args.expect_prefix:
        if not any(n.startswith(prefix) for n in names):
            fail(f"no series named `{prefix}*` (got {sorted(set(names))})")
        if not any(n.startswith(prefix) for n in alive):
            fail(
                f"every `{prefix}*` series is zero — registered but never "
                "recorded; the row's workload does not exercise it"
            )

    print(
        f"check_metrics_json: OK: {args.metrics} — {len(names)} series"
        + (f", prefixes {args.expect_prefix}" if args.expect_prefix else "")
    )


if __name__ == "__main__":
    main()
