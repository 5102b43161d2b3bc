"""Scoreboard entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 scoreboard/run.py --workload evolve-fig12 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` the per-layer
table and every per-layer metric.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

This script imports nothing from the program: it starts ``worker.py``
processes with BLAS/OpenMP pools pinned to one thread, times set-up over
several fresh interpreters and relays the worker's figures.  It exits
non-zero, without a result, when a worker fails or the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from spans import format_table
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Fresh interpreters timed for ``setup_s`` besides the measuring worker.
SETUP_PROBES = 6

#: Wall-clock cap on any one worker process.
WORKER_TIMEOUT_S = 150.0

#: Thread pools pinned to one thread: on a small host a default-sized
#: pool burns more CPU than wall time while importing numpy/scipy.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in config[kind]}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: List[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result line.

    The worker's standard error passes through.  A worker that fails or
    outlives ``deadline`` is killed and reaped, then ``RuntimeError`` is
    raised.
    """
    process = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--launched", repr(time.time())],
        cwd=str(ROOT), env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"worker {' '.join(args)} timed out") from None
    if process.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {process.returncode}")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one scoreboard workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-every", type=int, default=0,
                        help="corrupt every N-th op's result (checks the checker)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"scoreboard: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--perturb-every", str(args.perturb_every)]
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            outcome = run_worker([*common, "--mode", "trace"], deadline)
        else:
            setup_samples = [
                run_worker([*common, "--mode", "probe"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            outcome = run_worker([*common, "--mode", "measure"], deadline)
            setup_samples.append(outcome["setup_s"])
    except RuntimeError as error:
        print(f"scoreboard: {error}", file=sys.stderr)
        return 1

    figures = outcome["metrics"]
    if not args.trace:
        figures["setup_s"] = statistics.median(setup_samples)
        print(f"# {args.workload} seed={args.seed}: {figures['ops']} ops, "
              f"samples {figures['samples']}, host slowdown "
              f"{figures['host_slowdown']:.3f}, scaled setup samples "
              f"{[round(value, 3) for value in setup_samples]}")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": figures[name], "unit": unit} for name, unit in units.items()}
    if args.trace:
        print(format_table(args.workload, metrics))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
