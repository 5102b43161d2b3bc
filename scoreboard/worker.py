"""One workload process of the scoreboard (started by ``run.py``).

Modes:

* ``probe``   — set up (imports, task synthesis, platform/healer build,
  one untimed warm-up op) and exit; ``run.py`` takes ``setup_s`` as the
  median over several fresh interpreters.
* ``measure`` — set up, run ops back to back for ``--seconds`` with
  :mod:`hostspeed` probe slices between them, check every op against
  the goldens and print the end-to-end figures as one JSON line.
* ``trace``   — run a fixed number of ops twice each, once with the
  span wrappers of :mod:`spans` installed and once without, and print
  every per-layer metric.

Every mode prints one JSON line, which includes ``setup_s``: the time
from the parent's ``--launched`` stamp to the end of the warm-up op,
scaled by a :mod:`hostspeed` probe run right after it.

The worker writes only under ``scoreboard/.run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
RUN_DIR = HERE / ".run"

#: Op time the set-up is charged in probe slices (ten of them): the set-up
#: is scaled by the host speed measured right after it, not minutes later.
SETUP_PROBE_S = 0.5


def _no_fsync(fd: int) -> None:
    """``os.fsync`` as on a RAM-backed directory: the data is already in memory."""


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_goldens(name: str) -> dict:
    """``{"digests": {key: digest}, "costs": [evaluations per op id]}``."""
    return json.loads((HERE / "goldens" / f"{name}.json").read_text(encoding="utf-8"))


def check(results, goldens: Dict[str, str]):
    """(attempted, failed): every digest against its golden, plus self checks."""
    attempted = failed = 0
    for result in results:
        for key, value in result.digests.items():
            attempted += 1
            failed += goldens.get(key) != value
        attempted += result.self_checks
        failed += result.self_failures
    return attempted, failed


def end_to_end(results, slowdown: float) -> Dict[str, float]:
    """The end-to-end metrics of a measured phase (see README.md for each).

    Times are divided, and rates multiplied, by the host probe's
    ``slowdown``: every figure is at the nominal host speed.
    """
    wall = sum(result.wall_s for result in results) / slowdown
    samples: Dict[str, List[float]] = {}
    for result in results:
        for kind, values in result.samples.items():
            samples.setdefault(kind, []).extend(values)
    samples = {kind: [value / slowdown for value in values]
               for kind, values in samples.items()}
    runs = samples["run"]
    # Workloads without a fault or a cache rerun report their op latency as
    # repair latency and split cold/warm by position in the timed phase.
    repairs = samples.get("repair", runs)
    if "cold" in samples:
        cold, warm = samples["cold"], samples["warm"]
    else:
        half = len(runs) // 2
        cold, warm = runs[:half] or runs, runs[half:]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "evals_per_s": sum(result.evals for result in results) / wall,
        "cycles_per_s": sum(result.cycles for result in results) / wall,
        "run_s_p50": statistics.median(runs),
        "run_s_p90": percentile(runs, 90),
        "repair_s_p50": statistics.median(repairs),
        "repair_s_p90": percentile(repairs, 90),
        "cold_run_s_p50": statistics.median(cold),
        "warm_run_s_p50": statistics.median(warm),
        "ops": len(results),
        "samples": {kind: len(values) for kind, values in sorted(samples.items())},
        "host_slowdown": slowdown,
    }


def measure(workload, seed: int, seconds: float) -> dict:
    from hostspeed import HostProbe
    from workloads import op_order

    goldens = load_goldens(workload.name)
    order = op_order(seed, goldens["costs"])
    probe = HostProbe()
    results = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        results.append(workload.run_op(next(order)))
        probe.run(results[-1].wall_s)
    attempted, failed = check(results, goldens["digests"])
    return {"attempted": attempted, "failed": failed,
            "metrics": end_to_end(results, probe.slowdown)}


def trace(workload, seed: int, tracer, import_s: float) -> dict:
    from spans import layer_metrics
    from workloads import op_order

    goldens = load_goldens(workload.name)
    setup = layer_metrics(tracer, ["setup"])
    tracer.counters.clear()
    order = op_order(seed, goldens["costs"])
    results, walls, labels = [], {False: 0.0, True: 0.0}, []
    for index in range(workload.trace_ops):
        op_id = next(order)
        # Alternate which pass runs first, so warm-up effects cancel.
        for traced in (index % 2 == 1, index % 2 == 0):
            if traced:
                tracer.op = f"op-{index}"
                labels.append(tracer.op)
                with tracer.installed(), tracer.span("op"):
                    result = workload.run_op(op_id)
            else:
                result = workload.run_op(op_id)
            walls[traced] += result.wall_s
            results.append(result)
    attempted, failed = check(results, goldens["digests"])
    metrics = layer_metrics(tracer, labels)
    metrics.update({
        "setup.import_s": import_s,
        "setup.task_s": setup["imaging.task_s"],
        "trace.ops": len(labels),
        "trace.overhead": walls[True] / walls[False] - 1.0,
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--perturb-every", type=int, default=0,
                        help="corrupt every N-th op's result (checks the checker)")
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() when the parent started this interpreter")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.scenarios  # noqa: F401
    import_s = time.perf_counter() - started

    from hostspeed import HostProbe
    from spans import Tracer
    from workloads import WORKLOADS

    os.fsync = _no_fsync
    scratch = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](scratch=scratch, perturb_every=args.perturb_every)
    tracer = Tracer()
    try:
        if args.mode == "trace":
            with tracer.installed():
                workload.setup()
                workload.warmup()
        else:
            workload.setup()
            workload.warmup()
        setup_s = time.time() - args.launched
        setup_probe = HostProbe()
        setup_probe.run(SETUP_PROBE_S)
        setup_s /= setup_probe.slowdown
        if args.mode == "probe":
            outcome = {}
        elif args.mode == "trace":
            outcome = trace(workload, args.seed, tracer, import_s)
            tracer.write(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            outcome = measure(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcome["setup_s"] = setup_s
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
