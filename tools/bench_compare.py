#!/usr/bin/env python3
"""Compare a pytest-benchmark JSON run against a committed baseline.

The CI ``benchmark-regression`` job runs the backend and population
benchmarks with ``--benchmark-json``, uploads the raw ``BENCH_<sha>.json``
artifact, and then calls this tool to compare the run's per-benchmark
mean times against ``benchmarks/baseline.json``.  The gate is the
geometric mean of the per-benchmark slowdown ratios
(``current_mean / baseline_mean``) over the benchmarks both files share:
a geomean above ``1 + --max-regression`` (default 20%) fails the job.
The geometric mean weights every benchmark equally, so one noisy
microbenchmark cannot sink (or mask) the gate on its own.

Usage::

    python tools/bench_compare.py CURRENT.json benchmarks/baseline.json
    python tools/bench_compare.py CURRENT.json benchmarks/baseline.json \
        --max-regression 0.20
    python tools/bench_compare.py CURRENT.json benchmarks/baseline.json \
        --refresh

Refreshing the baseline
-----------------------

After an intentional performance change (new backend, slower-but-correct
fix), regenerate the baseline from a fresh run and commit it::

    python -m pytest benchmarks/test_bench_backends.py \
        benchmarks/test_bench_fitness_pipeline.py -q -s \
        --benchmark-json /tmp/bench.json
    python tools/bench_compare.py /tmp/bench.json benchmarks/baseline.json \
        --refresh

``--refresh`` rewrites the baseline file from the current run (trimmed
to the per-benchmark means) instead of comparing.  The diff of
``benchmarks/baseline.json`` then documents the accepted shift in
review.

Both the full pytest-benchmark format (``{"benchmarks": [...]}``)
and the trimmed baseline format (``{"means": {...}}``) are accepted on
either side of the comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

__all__ = ["extract_means", "compare_means", "trim", "main"]


def extract_means(doc: dict) -> Dict[str, float]:
    """Per-benchmark mean seconds from either accepted JSON layout."""
    if "means" in doc:
        return {str(name): float(mean) for name, mean in doc["means"].items()}
    if "benchmarks" in doc:
        means: Dict[str, float] = {}
        for bench in doc["benchmarks"]:
            means[str(bench["name"])] = float(bench["stats"]["mean"])
        return means
    raise ValueError("unrecognised benchmark JSON: expected 'benchmarks' or 'means'")


def compare_means(
    current: Dict[str, float],
    baseline: Dict[str, float],
    max_regression: float = 0.20,
) -> dict:
    """Compare two name->mean maps; returns a report with an ``ok`` verdict.

    The verdict is computed over the shared benchmark names only;
    benchmarks that exist on one side only are reported but do not
    gate (removals and additions are intentional and reviewed via the
    baseline diff).  An empty intersection fails: it means the baseline
    is stale enough that the gate would otherwise pass vacuously.
    """
    shared = sorted(set(current) & set(baseline))
    rows: List[dict] = []
    for name in shared:
        rows.append(
            {
                "name": name,
                "baseline_s": baseline[name],
                "current_s": current[name],
                "ratio": current[name] / baseline[name],
            }
        )
    missing = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    if shared:
        geomean = math.exp(sum(math.log(row["ratio"]) for row in rows) / len(rows))
        ok = geomean <= 1.0 + max_regression
        reason = (
            f"geomean slowdown {geomean:.3f}x vs allowed "
            f"{1.0 + max_regression:.3f}x"
        )
    else:
        geomean = None
        ok = False
        reason = "no shared benchmarks between current run and baseline"
    return {
        "ok": ok,
        "reason": reason,
        "geomean": geomean,
        "max_regression": max_regression,
        "rows": rows,
        "missing": missing,
        "added": added,
    }


def trim(doc: dict) -> dict:
    """The committed-baseline form of a benchmark run: just the means."""
    return {
        "note": (
            "Committed benchmark baseline; refresh via "
            "tools/bench_compare.py --refresh (see its docstring)."
        ),
        "means": extract_means(doc),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare.py",
        description="Gate a benchmark run against a committed baseline.",
    )
    parser.add_argument("current", type=Path, help="pytest-benchmark JSON of this run")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed geomean slowdown fraction (default: 0.20 = 20%%)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="rewrite the baseline from the current run instead of comparing",
    )
    args = parser.parse_args(argv)

    current_doc = json.loads(args.current.read_text(encoding="utf-8"))
    if args.refresh:
        args.baseline.write_text(
            json.dumps(trim(current_doc), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline refreshed: {args.baseline}")
        return 0

    baseline_doc = json.loads(args.baseline.read_text(encoding="utf-8"))
    report = compare_means(
        extract_means(current_doc),
        extract_means(baseline_doc),
        max_regression=args.max_regression,
    )
    for row in report["rows"]:
        print(
            f"{row['name']}: baseline {row['baseline_s']:.6f}s "
            f"current {row['current_s']:.6f}s ratio {row['ratio']:.3f}x"
        )
    for name in report["missing"]:
        print(f"{name}: in baseline only (removed from this run)")
    for name in report["added"]:
        print(f"{name}: new in this run (not gated; refresh the baseline)")
    print(report["reason"])
    if not report["ok"]:
        print("benchmark regression gate FAILED", file=sys.stderr)
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
