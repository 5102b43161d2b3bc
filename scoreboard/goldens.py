"""Regenerate ``goldens/<workload>.json``: reference digests and op costs.

For every op of a workload's pool this records

* its result digests on the ground-truth ``reference`` engine, which
  ``worker.py`` checks every measured op against; and
* its cost: the op's ``numpy`` time in seconds, the smaller of two
  passes over the pool.  :func:`workloads.op_order` stratifies the pool
  by cost so that every run gets the same mix of quick and slow ops.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 scoreboard/goldens.py evolve-fig12 heal-mission campaign-rerun

Rerun it only when a workload's definition changes: a program change
that alters results is exactly what the goldens exist to catch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_pool(name: str, backend: str):
    """Every op of the pool once, in op-id order, on ``backend``."""
    scratch = HERE / ".run" / f"goldens-{name}-{os.getpid()}"
    workload = WORKLOADS[name](backend=backend, scratch=scratch)
    workload.setup()
    workload.warmup()
    try:
        return [workload.run_op(op_id) for op_id in range(workload.pool)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def generate(name: str) -> dict:
    digests = {}
    for result in run_pool(name, "reference"):
        digests.update(result.digests)
    passes = [run_pool(name, "numpy") for _ in range(2)]
    costs = [round(min(first.wall_s, second.wall_s), 6) for first, second in zip(*passes)]
    print(f"{name}: {len(digests)} digests, {len(costs)} costs", file=sys.stderr)
    return {"workload": name, "backend": "reference", "costs": costs, "digests": digests}


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        path = HERE / "goldens" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(generate(name), indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
