"""Compare two sets of benchmark runs: a parent commit and a change.

Usage:  python3 perfbench/compare.py PARENT_RECORDS CHANGE_RECORDS

Each argument is a directory of run records written by run.py (its
``.perfbench/records``) or a glob of record files.  Only untraced runs
count.  Make the two sides' runs alternately, so that they share the
machine's drift in speed.  For each workload and end-to-end metric of BENCHMARK.json the
script prints both medians and quartiles over the runs, the pairs the
change wins (runs paired in the order they were made) and a verdict:

* improved: there are at least ten pairs, the change wins at least nine
  tenths of them, ties counting for neither, and the medians differ by
  more than the distance between the parent's quartiles;
* unresolved: the parent's quartile spread is wider than the metric's
  bound, and not every run of the change reads better than every run of
  the parent;
* worse: the change's median is worse than the parent's by more than the
  bound;
* no worse: otherwise.

A row per workload also compares the failed share of the commands run; a
change that fails more often than its parent is worse there.
"""

from __future__ import annotations

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from run import quartiles  # noqa: E402

# fewest parent/change pairs on which a gain may be claimed
MIN_PAIRS = 10


def load_runs(where: str) -> dict:
    """{workload: [record]} of the untraced runs, oldest first."""
    paths = sorted(glob.glob(os.path.join(where, "*.json")) if os.path.isdir(where)
                   else glob.glob(where))
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record["trace"] == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["created_ns"])
    return runs


def verdict(parent, change, better, bound):
    """Verdict and pair wins for one metric's run values on both sides."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med = quartiles(change)[0]
    spread = p_q3 - p_q1
    gain = sign * (p_med - c_med)  # positive when the change is better
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", wins, len(pairs)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(p_med):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def describe(values):
    median, q1, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':10s} {'metric':14s} {'parent median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'wins':7s} verdict")
    outcomes = set()
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:10s} missing runs on one side")
            outcomes.add("unresolved")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in p_runs]
            c_values = [r["metrics"][name]["value"] for r in c_runs]
            outcome, wins, pairs = verdict(p_values, c_values, metric["better"],
                                           metric["bound"])
            print(f"{workload:10s} {name:14s} {describe(p_values):36s} "
                  f"{describe(c_values):36s} {wins}/{pairs:<5d} {outcome}")
            outcomes.add(outcome)
        p_rate = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_rate = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        outcome = "worse" if c_rate > p_rate else "no worse"
        print(f"{workload:10s} {'error_rate':14s} {p_rate:<36.6g} {c_rate:<36.6g} "
              f"{'':7s} {outcome}")
        outcomes.add(outcome)
    overall = next((o for o in ("worse", "unresolved") if o in outcomes), "no worse")
    print(f"overall: {overall}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
