#!/usr/bin/env python3
"""Compare two benchmark result documents side by side.

    python3 benchmark/compare.py A.json B.json

A and B are documents written by `ltse-benchmark --json PATH` (A is the
baseline). For every workload present in both, each metric is printed with
its reported value and quartiles on both sides and the change of B against
A. The value is the median, or for the timed phase's times and rates the
faster quartile.

End-to-end metrics carry a direction and a bound in BENCHMARK.json at the
repository root:
  * REGRESSION  B's value is worse than A's by more than the bound;
  * improved    B's value is better than A's by more than the bound;
  * unresolved  the quartile spread of A or B, as a share of its median,
                exceeds the bound, so a difference within it means nothing.
Exit status: 1 if any metric regressed, 0 otherwise.
"""

import json
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(m):
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(a, b, rule):
    if rule is None:
        return ""
    bound, better = rule["bound"], rule["better"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base = abs(a["value"])
    if base == 0:
        return ""
    change = (b["value"] - a["value"]) / base
    worse = change > bound if better == "lower" else change < -bound
    gain = change < -bound if better == "lower" else change > bound
    return "REGRESSION" if worse else "improved" if gain else ""


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    rules = {m["name"]: m for m in load(MANIFEST)["end_to_end"]}
    print(f"A: {argv[1]}  commit {a['host']['commit']}  cpus {a['host']['cpus']}")
    print(f"B: {argv[2]}  commit {b['host']['commit']}  cpus {b['host']['cpus']}")
    regressions = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        print(f"\n{workload}  (correct: A {wa['correct']}, B {wb['correct']})")
        print(f"  {'metric (unit)':<36} {'A value [q1, q3]':>34} {'B value [q1, q3]':>34} {'change':>8}")
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                continue
            change = (mb["value"] - ma["value"]) / abs(ma["value"]) if ma["value"] else 0.0
            flag = verdict(ma, mb, rules.get(name))
            regressions += flag == "REGRESSION"
            side = lambda m: f"{m['value']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
            label = f"{name} ({ma['unit']})"
            print(f"  {label:<36} {side(ma):>34} {side(mb):>34} {change:>+8.1%} {flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
