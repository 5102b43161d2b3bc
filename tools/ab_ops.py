#!/usr/bin/env python3
"""Interleaved A/B of one scoreboard workload across two checkouts.

A scoreboard verdict compares separate runs minutes apart, so drift of a
shared host can read as a regression or a gain.  This tool runs the same
ops in both checkouts side by side instead.  Pair ``i`` starts one worker
process per checkout; each sets the workload up and runs its warm-up op
untimed, then the two workers take turns, op by op, over the same
``--ops`` op ids from the scoreboard's ``op_order(seed, costs)`` (in the
order A B B A ..., with A the base on even pairs and the change on odd
ones).  A slow spell of the host so lands on both sides alike.  Each op
is timed in its worker's CPU time.

Every op's digest is checked against the goldens of the checkout that
ran it; the tool exits 1 if any digest differs (or a worker fails), and
0 otherwise.  It only reads ``scoreboard/`` (its workloads and goldens)
and writes scratch files under a temporary directory.

Usage::

    python tools/ab_ops.py --base ../parent --change . \\
        --workload evolve-fig12 --seed 1 --pairs 6 --ops 40

prints one line per pair (each side's median CPU ms per op), then the
headline: the median over pairs of each pair's ``change/base`` ratio, with
each side's median over pairs beside it, and (with ``--json``) one JSON
line with every figure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

__all__ = ["Worker", "run_pair", "main"]

#: Thread pools pinned to one thread and a fixed hash seed, as the
#: scoreboard runs its workers.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _serve(root: Path, workload_name: str) -> None:
    """Worker loop: set up from checkout ``root``, then run each op id read from stdin."""
    sys.path[:0] = [str(root / "scoreboard"), str(root / "src")]
    from workloads import WORKLOADS

    goldens = json.loads(
        (root / "scoreboard" / "goldens" / f"{workload_name}.json").read_text(encoding="utf-8")
    )["digests"]
    with tempfile.TemporaryDirectory(prefix="ab-ops-") as scratch:
        workload = WORKLOADS[workload_name](scratch=Path(scratch))
        workload.setup()
        workload.warmup()
        print("ready", flush=True)
        for line in sys.stdin:
            started = time.process_time()
            result = workload.run_op(int(line))
            cpu_ms = 1e3 * (time.process_time() - started)
            mismatches = [
                key for key, value in result.digests.items() if goldens.get(key) != value
            ]
            if result.self_failures:
                mismatches.append(f"op {int(line)}: {result.self_failures} self-check failures")
            print(json.dumps({"cpu_ms": cpu_ms, "mismatches": mismatches}), flush=True)


class Worker:
    """One worker process of a checkout, driven op by op."""

    def __init__(self, root: Path, workload: str) -> None:
        env = dict(os.environ, **PINNED_ENV)
        env.pop("PYTHONPATH", None)
        self.root = root
        command = [sys.executable, str(Path(__file__).resolve())]
        self.process = subprocess.Popen(
            command + ["--serve", str(root), "--workload", workload],
            cwd=str(root),
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._expect("ready")

    def _expect(self, what: str) -> str:
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            code = self.process.returncode
            raise RuntimeError(f"{self.root}: worker exited ({code}) while {what}")
        return line

    def run(self, op_id: int) -> dict:
        self.process.stdin.write(f"{op_id}\n")
        self.process.stdin.flush()
        return json.loads(self._expect(f"running op {op_id}"))

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


def run_pair(sides: Dict[str, Path], first: str, workload: str, op_ids: List[int]) -> dict:
    """Both sides' per-op CPU ms and digest mismatches, ops taken in turns."""
    second = "change" if first == "base" else "base"
    workers = {side: Worker(sides[side], workload) for side in (first, second)}
    outcome = {side: {"cpu_ms": [], "mismatches": []} for side in sides}
    try:
        for index, op_id in enumerate(op_ids):
            for side in (first, second) if index % 2 == 0 else (second, first):
                result = workers[side].run(op_id)
                outcome[side]["cpu_ms"].append(result["cpu_ms"])
                outcome[side]["mismatches"].extend(result["mismatches"])
    finally:
        for worker in workers.values():
            worker.close()
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="checkout of the parent (side A)")
    parser.add_argument(
        "--change",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout of the change (side B; default: this checkout)",
    )
    parser.add_argument("--workload", default="evolve-fig12")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--ops", type=int, default=40, help="timed ops per worker")
    parser.add_argument("--json", action="store_true", help="also print one JSON result line")
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.serve is not None:
        _serve(args.serve, args.workload)
        return 0
    if args.base is None:
        parser.error("--base is required")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    sys.path.insert(0, str(sides["change"] / "scoreboard"))
    from workloads import op_order

    goldens = sides["change"] / "scoreboard" / "goldens" / f"{args.workload}.json"
    costs = json.loads(goldens.read_text(encoding="utf-8"))["costs"]
    op_ids = list(itertools.islice(op_order(args.seed, costs), args.ops))
    per_pair: List[Dict[str, float]] = []
    ratios: List[float] = []
    mismatches: Dict[str, List[str]] = {"base": [], "change": []}
    for pair in range(args.pairs):
        outcome = run_pair(sides, "base" if pair % 2 == 0 else "change", args.workload, op_ids)
        medians = {side: statistics.median(outcome[side]["cpu_ms"]) for side in sides}
        for side in sides:
            mismatches[side].extend(outcome[side]["mismatches"])
        per_pair.append(medians)
        ratios.append(medians["change"] / medians["base"])
        print(
            f"pair {pair}: base {medians['base']:.2f} ms/op, "
            f"change {medians['change']:.2f} ms/op ({100 * (ratios[-1] - 1):+.1f}%)",
            flush=True,
        )
    # The headline compares the two sides within each pair: host speed
    # drifts between pairs, so per-side medians may come from different
    # pairs and need not agree with the pairs themselves.
    ratio = statistics.median(ratios)
    base = statistics.median(pair["base"] for pair in per_pair)
    change = statistics.median(pair["change"] for pair in per_pair)
    wins = sum(pair["change"] < pair["base"] for pair in per_pair)
    print(
        f"median per-pair change/base: {100 * (ratio - 1):+.1f}%; "
        f"change faster in {wins}/{len(per_pair)} pairs; "
        f"per-side median CPU ms/op: base {base:.2f}, change {change:.2f}"
    )
    for side, found in mismatches.items():
        if found:
            print(f"{side}: {len(found)} digest mismatch(es), first: {found[0]}")
    if args.json:
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "pairs": per_pair,
            "median_ratio": ratio,
            "median_ms": {"base": base, "change": change},
            "change_faster": wins,
            "mismatches": {side: len(found) for side, found in mismatches.items()},
        }
        print(json.dumps(result))
    return 1 if any(mismatches.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
