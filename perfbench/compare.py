"""Compare two sets of benchmark runs, one row per workload and metric.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the full reports that run.py writes (its --out
directory) for untraced runs of one commit. Runs are paired by workload
and seed. The verdict of each row follows these rules:

- unresolved: either side's spread (interquartile range over median) is
  wider than the metric's bound in BENCHMARK.json, unless every change run
  reads better than every parent run;
- better: at least ten pairs, the change wins at least 9/10 of them (ties
  count for neither side) and the medians differ by more than the parent's
  interquartile range;
- worse: the change's median is worse than the parent's by more than the
  bound;
- same: anything else, including a gain with more failed operations
  than the parent's runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: {seed: report}} for the untraced reports in a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        if report.get("trace") == 0:
            runs.setdefault(report["workload"], {})[report["seed"]] = report
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound):
    """Verdict for paired lists of values; better is 'lower' or 'higher'."""
    sign = 1 if better == "higher" else -1

    def gain(c, p):
        return sign * (c - p)

    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr, c_iqr = iqr(parent), iqr(change)
    row = {"parent_median": p_med, "change_median": c_med, "parent_iqr": p_iqr,
           "change_iqr": c_iqr, "pairs": len(parent)}
    wins = sum(gain(c, p) > 0 for p, c in zip(parent, change))
    row["wins"] = wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = max(p_iqr / abs(p_med) if p_med else 0.0, c_iqr / abs(c_med) if c_med else 0.0)
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif len(parent) >= 10 and wins >= 0.9 * len(parent) and gain(c_med, p_med) > p_iqr:
        row["verdict"] = "better"
    elif gain(c_med, p_med) < -bound * abs(p_med):
        row["verdict"] = "worse"
    else:
        row["verdict"] = "same"
    return row


def compare(parent_dir, change_dir, bench=None):
    bench = bench or json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        failed = (sum(r["failed"] for r in p_runs), sum(r["failed"] for r in c_runs))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            if not seeds:
                continue
            row = verdict(p_vals, c_vals, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, failed=failed)
            if row["verdict"] == "better" and failed[1] > failed[0]:
                row["verdict"] = "same"  # a gain does not count with more failures
            rows.append(row)
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':12} {'metric':15} {'parent':>11} {'change':>11} {'p.iqr':>9} "
          f"{'wins':>6} {'failed p/c':>10}  verdict")
    for r in rows:
        print(f"{r['workload']:12} {r['metric']:15} {r['parent_median']:11.5g} "
              f"{r['change_median']:11.5g} {r['parent_iqr']:9.3g} "
              f"{r['wins']:>3}/{r['pairs']:<2} {r['failed'][0]:>4}/{r['failed'][1]:<5}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
