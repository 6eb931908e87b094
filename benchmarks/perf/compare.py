#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``.

    python benchmarks/perf/compare.py A.json B.json
    python benchmarks/perf/compare.py --baseline A.json > results/baseline.json

Each file holds one or more untraced runs per workload (``run.py --out``
appends).  Per workload and end-to-end metric it prints both medians, the
ratio B/A (base: A) and a verdict against the metric's bound — the issue's
metrics against ``metrics.json``, the driver-facing ones against
``BENCHMARK.json``:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound, or B does not have the
                  workload or the metric at all (a run that failed reports
                  no latency, and that is not a pass);
* ``unresolved``  the run-to-run spread (interquartile range over median,
                  either side) is wider than the bound, unless every run of
                  B reads better than every run of A;
* ``reported``    the metric is demoted in ``metrics.json`` (bound null).

Exit status is 1 if anything regressed or B failed a larger share of its
operations than A, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

from _common import PERF_DIR, REPO_ROOT, median, quartiles


def load_bounds() -> dict[str, tuple[str, float]]:
    """metric name -> (direction, bound), issue-named and driver-facing."""
    with open(os.path.join(PERF_DIR, "metrics.json"), encoding="utf-8") as fh:
        registry = json.load(fh)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    bounds = {
        name: (entry["better"], entry["bound"])
        for name, entry in registry["end_to_end"].items()
    }
    for entry in benchmark["end_to_end"]:
        # Both files name setup_s; metrics.json's entry says whether it is judged.
        bounds.setdefault(entry["name"], (entry["better"], entry["bound"]))
    return bounds


def collect(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per untraced run in the file."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for run in document.get("runs", []):
        if run.get("trace"):
            continue
        merged = {**run.get("driver_metrics", {}), **run["metrics"]}
        for name, entry in merged.items():
            values[run["workload"]][name].append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, middle, high = quartiles(values)
    return (high - low) / middle if middle else 0.0


def summarize(values: dict[str, dict[str, list[float]]]) -> dict:
    return {
        workload: {
            name: dict(zip(("q1", "median", "q3"), quartiles(runs)), runs=len(runs),
                       spread=spread(runs))
            for name, runs in metrics.items()
        }
        for workload, metrics in values.items()
    }


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base, new = median(a), median(b)
    if base == 0:
        return "ok" if new <= 0 or better == "higher" else "regressed"
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "ok" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--baseline":
        with open(argv[1], encoding="utf-8") as fh:
            document = json.load(fh)
        document["quartiles"] = summarize(collect(argv[1]))
        json.dump(document, sys.stdout, indent=1)
        print()
        return 0
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = collect(argv[0]), collect(argv[1])
    bounds = load_bounds()
    status = 0
    print(f"base A = {argv[0]}   B = {argv[1]}   ratio = B / A")
    print(f"{'workload':20s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'ratio':>7s} {'bound':>6s} {'spread A/B':>11s}  verdict")
    for workload in a:
        for name, runs_a in a[workload].items():
            if name not in bounds:
                continue
            better, bound = bounds[name]
            runs_b = b.get(workload, {}).get(name)
            if not runs_b:
                status = 1
                print(f"{workload:20s} {name:20s} {median(runs_a):12.5g} {'missing':>12s} "
                      f"{'n/a':>7s} {'n/a':>6s} {'n/a':>11s}  regressed")
                continue
            if name == "failed_share":
                result = "regressed" if max(runs_b) > max(runs_a) else "ok"
            elif bound is None:
                result = "reported"
            else:
                result = verdict(runs_a, runs_b, better, bound)
            if result == "regressed":
                status = 1
            base, new = median(runs_a), median(runs_b)
            ratio = f"{new / base:7.3f}" if base else "    n/a"
            limit = "   n/a" if bound is None else f"{bound:6.2f}"
            print(f"{workload:20s} {name:20s} {base:12.5g} {new:12.5g} {ratio} "
                  f"{limit} {spread(runs_a):5.2f}/{spread(runs_b):4.2f}  {result}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
