"""Check the checker: a deliberately perturbed result must count as failed.

For each workload, runs ``run.py`` briefly with ``--perturb-every 2``
(every second op's result is corrupted after it ran — a fitness value
nudged by one — before it is digested) and asserts that the run reports
``correct: false`` with failures, then once without perturbation and
asserts zero failures.  Usage (from the root of a checkout)::

    python3 scoreboard/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def result(workload: str, perturb_every: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "3", "--trace", "0", "--perturb-every", str(perturb_every)],
        cwd=str(HERE.parent), stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        clean = result(workload, 0)
        perturbed = result(workload, 2)
        print(f"{workload}: clean {clean['failed']}/{clean['attempted']} failed, "
              f"perturbed {perturbed['failed']}/{perturbed['attempted']} failed")
        if not clean["correct"] or clean["failed"]:
            problems.append(f"{workload}: an unperturbed run failed its checks")
        if perturbed["correct"] or not perturbed["failed"]:
            problems.append(f"{workload}: a perturbed result was not counted as failed")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
