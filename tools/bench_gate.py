#!/usr/bin/env python3
"""Fail when a change's sspbench results regress against its base commit's.

usage: bench_gate.py BASE_RESULTS CHANGE_RESULTS

Each file holds the JSON result lines (the last stdout line of
`python3 sspbench/run.py ...`) of one workload's runs on one side, one line
per run; traced (--trace 1) and untraced runs may share a file. Both sides
must come from the same runner, interleaved, at the same seeds and run
length, so no machine-speed correction is needed.

The gate fails when any run reads "correct": false or "failed" > 0, or when
the change's median of an end-to-end metric is worse than the base median
by more than that metric's bound, or when a gated metric is measured on
one side only. Names, directions and bounds come from
BENCHMARK.json's end_to_end list. Traced runs add two per-layer checks,
each of which may move the wrong way by at most TRACED_BOUND, in the
direction BENCHMARK.json's per_layer list gives it:
ipa.cross_cache_lookups (a batch run attaches a cross-program summary
cache nobody passed it; plain batches run without one and read 0) and
driver.lane_utilization (batch lanes wait idle behind the largest program,
as under a static split of the input list). Traced result lines carry only
per-layer metrics, so a traced median is taken over the traced runs alone;
CI runs three traced batch-cold pairs (seeds 1-3) so that one noisy run
cannot move it.

Exit status: 0 clean, 1 regression or failed run, 2 unreadable input.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Per-layer metrics with no bound in BENCHMARK.json that a traced run still
# gates: moving the wrong way by more than a quarter fails. From a base of
# 0, a lower-is-better metric fails on any rise.
TRACED_CHECKS = ("ipa.cross_cache_lookups", "driver.lane_utilization")
TRACED_BOUND = 0.25


def die(message):
    print("bench_gate.py: " + message, file=sys.stderr)
    sys.exit(2)


def load(path):
    """The result lines of one file: [{"correct", "failed", "metrics"}]."""
    try:
        with open(path) as f:
            results = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))
    if not results or not all(isinstance(r, dict) and "metrics" in r for r in results):
        die("%s holds no sspbench result lines" % path)
    return results


def medians(results):
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main():
    if len(sys.argv) != 3:
        die(__doc__.split("\n\n")[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gated = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    per_layer = {m["name"]: m["better"] for m in spec["per_layer"]}
    gated += [(name, per_layer[name], TRACED_BOUND) for name in TRACED_CHECKS]

    sides = {"base": load(sys.argv[1]), "change": load(sys.argv[2])}
    failures = []
    for side, results in sides.items():
        for i, result in enumerate(results):
            if result.get("correct") is not True or result.get("failed", 1) > 0:
                failures.append("%s run %d: correct=%s failed=%s" % (
                    side, i + 1, result.get("correct"), result.get("failed")))

    base, change = medians(sides["base"]), medians(sides["change"])
    print("%-24s %12s %12s %8s %6s  verdict" % ("metric", "base", "change", "ratio", "bound"))
    for name, better, bound in gated:
        if name not in base or name not in change:
            if name in base or name in change:
                failures.append("%s: measured on one side only" % name)
            continue
        b, c = base[name], change[name]
        if better == "lower":
            worse = c > b * (1.0 + bound)
        else:
            worse = c < b * (1.0 - bound)
        ratio = "%.3f" % (c / b) if b else "-"
        print("%-24s %12.4g %12.4g %8s %6.2f  %s" % (
            name, b, c, ratio, bound, "WORSE" if worse else "ok"))
        if worse:
            failures.append("%s: %.4g -> %.4g (%s is better, bound %.2f)" % (
                name, b, c, better, bound))

    if failures:
        print("bench_gate.py: FAILED", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print("bench_gate.py: %d base and %d change runs, no regression" % (
        len(sides["base"]), len(sides["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
