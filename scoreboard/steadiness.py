"""Steadiness report: repeat workloads and print each metric's spread.

Runs ``run.py`` once per (workload, seed) and prints, for every
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles) beside the metric's bound from ``BENCHMARK.json``.  With
``--same-seed`` every repeat uses the first seed, so the spread is the
host's own drift rather than the inputs'.  Usage (from the root of a
checkout)::

    python3 scoreboard/steadiness.py --seeds 1-10
    python3 scoreboard/steadiness.py --workloads heal-mission --seeds 1-5
    python3 scoreboard/steadiness.py --workloads evolve-fig12 --seeds 1-5 --same-seed
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} ops failed their check")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Repeat workloads; print metric spreads.")
    parser.add_argument("--workloads", nargs="*",
                        default=[entry["name"] for entry in config["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat the first seed (host drift only)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.same_seed:
        seeds = [seeds[0]] * len(seeds)
    bounds = {entry["name"]: entry["bound"] for entry in config["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={value:.4g}" for name, value in runs[-1].items()), flush=True)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}"
              f"{' (same seed)' if args.same_seed else ''}")
        print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "  !" if spread > bound / 3 and name != "setup_s" else ""
            print(f"{name:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bound:>8.2f}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
