#!/usr/bin/env python3
"""Gate CI on `aligraph-lint --json` output. Stdlib only.

Usage:
    compare_lint.py REPORT.json [--baseline ci/lint-baseline.json]
                    [--expect-rule RULE]...

Two modes:

* **Baseline diff** (default) — validate the report against
  ci/lint-schema.json, then fail if any *active* (unwaived) diagnostic is
  missing from the committed baseline, or if more findings are waived than
  the baseline's `waived` count. Stale baseline entries and a lower waived
  count only warn, so the baseline can shrink without blocking and can
  never silently grow.
* **Self-test** (`--expect-rule`, repeatable) — for the deliberately-buggy
  fixture workspaces: assert the report contains at least one active
  diagnostic per named rule, proving the analyzer still catches the
  planted bugs. Exits nonzero when a rule stopped firing.

Diagnostics are fingerprinted as (rule, path, message) — no line numbers,
so unrelated edits above a finding do not churn the baseline.
"""

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
SCHEMA = HERE / "lint-schema.json"


def fail(msg: str) -> None:
    sys.exit(f"compare_lint: FAIL: {msg}")


def type_ok(node, name: str) -> bool:
    if name == "integer":
        return isinstance(node, int) and not isinstance(node, bool)
    return isinstance(
        node,
        {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}[name],
    )


def validate(node, schema, path, errs) -> None:
    """Minimal JSON-Schema subset: type, enum, required, properties, items."""
    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(type_ok(node, n) for n in names):
            errs.append(f"{path}: expected {'/'.join(names)}, got {type(node).__name__}")
            return
    if "enum" in schema and node not in schema["enum"]:
        errs.append(f"{path}: {node!r} not in {schema['enum']}")
    if isinstance(node, dict):
        for key in schema.get("required", []):
            if key not in node:
                errs.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in node:
                validate(node[key], sub, f"{path}.{key}", errs)
    if isinstance(node, list) and "items" in schema:
        for i, item in enumerate(node):
            validate(item, schema["items"], f"{path}[{i}]", errs)


def fingerprint(d: dict) -> tuple:
    return (d["rule"], d["path"], d["message"])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("report", type=pathlib.Path)
    ap.add_argument("--baseline", type=pathlib.Path, default=HERE / "lint-baseline.json")
    ap.add_argument("--expect-rule", action="append", default=[])
    args = ap.parse_args()

    try:
        report = json.loads(args.report.read_text())
    except json.JSONDecodeError as e:
        fail(f"{args.report}: not valid JSON: {e}")

    errs: list = []
    validate(report, json.loads(SCHEMA.read_text()), "$", errs)
    if errs:
        fail("schema violations:\n  " + "\n  ".join(errs))

    active = [d for d in report["diagnostics"] if not d["waived"]]
    if report["summary"]["active"] != len(active):
        fail(
            f"summary.active={report['summary']['active']} but "
            f"{len(active)} unwaived diagnostics listed"
        )

    if args.expect_rule:
        firing = {d["rule"] for d in active}
        missing = [r for r in args.expect_rule if r not in firing]
        if missing:
            fail(
                f"fixture self-test: expected active rule(s) {missing} but the "
                f"report only fires {sorted(firing) or ['nothing']}"
            )
        print(
            f"compare_lint: OK (self-test): rules {sorted(set(args.expect_rule))} "
            f"still fire, {len(active)} active finding(s)"
        )
        return

    baseline = json.loads(args.baseline.read_text())
    allowed = {fingerprint(d) for d in baseline["diagnostics"]}
    fresh = [d for d in active if fingerprint(d) not in allowed]
    if fresh:
        lines = []
        for d in fresh:
            lines.append(f"{d['path']}:{d['line']}: [{d['rule']}] {d['message']}")
            lines.extend(f"    via {frame}" for frame in d["chain"])
        fail(
            f"{len(fresh)} active diagnostic(s) not in the baseline "
            f"(fix them or add a reasoned `aligraph::allow` waiver):\n  "
            + "\n  ".join(lines)
        )

    waived, ceiling = report["summary"]["waived"], baseline["waived"]
    if waived > ceiling:
        reasons = [
            f"{d['path']}:{d['line']}: [{d['rule']}] {d['waiver_reason']}"
            for d in report["diagnostics"]
            if d["waived"]
        ]
        fail(
            f"{waived} waived diagnostic(s), the baseline allows {ceiling} "
            f"(drop a waiver or raise `waived` in the baseline and say why):\n  "
            + "\n  ".join(reasons)
        )

    seen = {fingerprint(d) for d in active}
    stale = allowed - seen
    for fp in sorted(stale):
        print(f"compare_lint: WARN: stale baseline entry (no longer reported): {fp}")
    if waived < ceiling:
        print(f"compare_lint: WARN: {waived} waived, baseline allows {ceiling}: lower it")

    print(
        f"compare_lint: OK: {len(active)} active / "
        f"{report['summary']['waived']} waived across "
        f"{report['files_scanned']} files, {report['functions']} functions"
    )


if __name__ == "__main__":
    main()
