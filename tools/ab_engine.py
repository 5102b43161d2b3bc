#!/usr/bin/env python3
"""In-process A/B of the numpy engine (``src/repro/backends/numpy_engine.py``).

Whole ops of one checkout and another, timed minutes or even seconds
apart on a shared host, can differ by a third with identical code.  This
tool times the engine alone instead, on the engine's own call stream:

1. *Record.*  With the base checkout's ``scoreboard/`` and ``src/`` on
   ``sys.path``, the workload is set up and its warm-up op run; then every
   ``NumpyBackend.evaluate_population`` and ``process_planes`` call of the
   first ``--ops`` ops of ``op_order(seed, costs)`` is recorded with its
   call-time arguments.  Each array is deep-copied at call time, with
   its fault streams but without its backend, and copied again before
   every replay, so every replay draws the same garbage words; genotypes
   are copied, and a planes or reference array is copied unless it views
   an immutable buffer (the same object recurs while its bytes do, so
   store hits recur as they did live).
2. *Load.*  Each checkout's ``numpy_engine.py`` is loaded as a module of
   its own.  Every other file of the two ``src/repro`` trees must be
   equal (exit 2 otherwise): the A/B measures the engine and nothing else.
3. *Replay.*  A replay makes one fresh backend per recorded backend and
   is timed in process CPU.  On a 2-vCPU host, a replay that directly
   followed one of its own side ran 5-8% faster (its side's pooled slabs
   are probably still warm), so each of the ``--reps`` reps replays the
   sides in the order A B B A, A alternating by rep, and a rep's ratio is
   of the two sides' sums.  The tool exits 1 if any fitness list or
   output plane differs between the sides, else 0.

Usage::

    python tools/ab_engine.py --base ../parent --change . \\
        --workload evolve-fig12 --seed 1 --ops 16 --reps 15

prints each side's min and median replay CPU ms and the headline: the
median over reps of each rep's ``change/base`` ratio (with ``--json``, one
JSON line with every figure as well).
"""

from __future__ import annotations

import argparse
import copy
import filecmp
import gc
import importlib.util
import itertools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = ["src_differences", "record", "load_engine", "replay", "main"]

ENGINE = Path("src") / "repro" / "backends" / "numpy_engine.py"


def src_differences(base: Path, change: Path) -> List[str]:
    """Files of ``src/repro`` other than the engine that differ between the trees."""
    def files(root: Path) -> Dict[str, Path]:
        tree = root / "src" / "repro"
        return {
            str(path.relative_to(root)): path
            for path in tree.rglob("*")
            if path.is_file() and "__pycache__" not in path.parts
        }

    ours, theirs = files(base), files(change)
    return sorted(
        name
        for name in ours.keys() | theirs.keys()
        if name != str(ENGINE)
        and (name not in ours or name not in theirs
             or not filecmp.cmp(ours[name], theirs[name], shallow=False))
    )


def _immutable(array: np.ndarray) -> bool:
    """Whether ``array`` views an immutable ``bytes`` buffer."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


class _Arrays:
    """Call-time values of recorded arrays: one object per run of equal bytes.

    An array object recurs across calls while its bytes do not change,
    as it did live, so the replayed engine finds its plane store again.
    """

    def __init__(self) -> None:
        self._seen: Dict[int, Tuple[np.ndarray, Any, np.ndarray]] = {}

    def freeze(self, array: np.ndarray) -> np.ndarray:
        seen = self._seen.get(id(array))
        if seen is not None and (seen[1] is None or seen[1] == array.tobytes()):
            return seen[2]
        if _immutable(array):
            frozen, snapshot = array, None
        else:
            frozen, snapshot = array.copy(), array.tobytes()
        # Holding the original keeps its id from being recycled.
        self._seen[id(array)] = (array, snapshot, frozen)
        return frozen


class Recording:
    """The recorded call stream: backend budgets and one tuple per call."""

    def __init__(self) -> None:
        #: ``(max_cache_bytes, max_stores)`` of each recorded backend.
        self.backends: List[Tuple[int, int]] = []
        #: ``(method, backend index, array, planes, genotypes, reference)``.
        self.calls: List[tuple] = []


def record(root: Path, workload_name: str, seed: int, ops: int) -> Recording:
    """Record the engine calls of the first ``ops`` ops of ``workload_name``."""
    sys.path[:0] = [str(root / "scoreboard"), str(root / "src")]
    from workloads import WORKLOADS, op_order

    from repro.array.genotype import Population
    from repro.backends.numpy_engine import NumpyBackend

    goldens = root / "scoreboard" / "goldens" / f"{workload_name}.json"
    costs = json.loads(goldens.read_text(encoding="utf-8"))["costs"]
    recording = Recording()
    indices: Dict[Any, int] = {}  # recorded backend -> its index
    arrays = _Arrays()
    depth = [0]

    def capture(method, backend, array, planes, genotypes, reference=None):
        index = indices.get(backend)
        if index is None:
            index = indices[backend] = len(recording.backends)
            recording.backends.append((backend.max_cache_bytes, backend.max_stores))
        # Without its backend: the engine reads only the geometry and the
        # fault streams.
        array_copy = copy.deepcopy(array, {id(array.backend): None})
        if method == "process_planes":
            genotypes = genotypes.copy()
        elif not isinstance(genotypes, Population):
            genotypes = [genotype.copy() for genotype in genotypes]
        if reference is not None:
            reference = arrays.freeze(np.asarray(reference))
        recording.calls.append(
            (method, index, array_copy, arrays.freeze(planes), genotypes, reference))

    def patched(method):
        original = getattr(NumpyBackend, method)

        def wrapper(self, array, planes, genotypes, *reference):
            if depth[0] == 0:
                capture(method, self, array, planes, genotypes, *reference)
            depth[0] += 1
            try:
                return original(self, array, planes, genotypes, *reference)
            finally:
                depth[0] -= 1

        return original, wrapper

    with tempfile.TemporaryDirectory(prefix="ab-engine-") as scratch:
        workload = WORKLOADS[workload_name](scratch=Path(scratch))
        workload.setup()
        workload.warmup()
        originals = {}
        for method in ("evaluate_population", "process_planes"):
            originals[method], wrapper = patched(method)
            setattr(NumpyBackend, method, wrapper)
        try:
            for op_id in itertools.islice(op_order(seed, costs), ops):
                workload.run_op(op_id)
        finally:
            for method, original in originals.items():
                setattr(NumpyBackend, method, original)
    return recording


def load_engine(root: Path, name: str):
    """``root``'s ``numpy_engine.py`` as a module of its own, named ``name``."""
    spec = importlib.util.spec_from_file_location(name, root / ENGINE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay(recording: Recording, engine) -> Tuple[float, List[np.ndarray]]:
    """CPU seconds of one replay of ``recording`` on ``engine``, and its results."""
    backends = [engine.NumpyBackend(cache, stores) for cache, stores in recording.backends]
    # Arrays are copied afresh, before the clock starts, so their fault
    # streams restart for every replay.
    calls = [
        (method, backends[index], copy.deepcopy(array), planes, genotypes, reference)
        for method, index, array, planes, genotypes, reference in recording.calls
    ]
    results: List[np.ndarray] = []
    gc.collect()
    started = time.process_time()
    for method, backend, array, planes, genotypes, reference in calls:
        if method == "process_planes":
            results.append(backend.process_planes(array, planes, genotypes))
        else:
            results.append(backend.evaluate_population(array, planes, genotypes, reference))
    return time.process_time() - started, results


def _same(ours: List[np.ndarray], theirs: List[np.ndarray]) -> bool:
    return len(ours) == len(theirs) and all(
        np.array_equal(a, b) for a, b in zip(ours, theirs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base tree")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", default="evolve-fig12")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=16, help="ops recorded after warm-up")
    parser.add_argument("--reps", type=int, default=10, help="reps of two replays per side")
    parser.add_argument("--json", action="store_true", help="also print one JSON line")
    args = parser.parse_args(argv)

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    differences = src_differences(sides["base"], sides["change"])
    if differences:
        print(f"src/repro differs outside the engine: {', '.join(differences)}")
        return 2
    recording = record(sides["base"], args.workload, args.seed, args.ops)
    engines = {side: load_engine(root, f"_ab_engine_{side}") for side, root in sides.items()}
    cpu_ms: Dict[str, List[float]] = {"base": [], "change": []}
    ratios: List[float] = []
    expected = None
    mismatches = 0
    for rep in range(args.reps):
        first, second = ("base", "change") if rep % 2 == 0 else ("change", "base")
        rep_ms = {"base": 0.0, "change": 0.0}
        for side in (first, second, second, first):
            seconds, results = replay(recording, engines[side])
            cpu_ms[side].append(1e3 * seconds)
            rep_ms[side] += 1e3 * seconds
            if expected is None:
                expected = results
            elif not _same(expected, results):
                mismatches += 1
                print(f"rep {rep}: {side} results differ from the first base replay")
        ratios.append(rep_ms["change"] / rep_ms["base"])
    ratio = statistics.median(ratios)
    summary = {
        side: {"min": min(times), "median": statistics.median(times)}
        for side, times in cpu_ms.items()
    }
    print(
        f"{args.workload}: {len(recording.calls)} calls; replay CPU ms "
        f"base min {summary['base']['min']:.1f} median {summary['base']['median']:.1f}, "
        f"change min {summary['change']['min']:.1f} median {summary['change']['median']:.1f}; "
        f"median per-rep change/base: {100 * (ratio - 1):+.1f}%"
    )
    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "ops": args.ops,
            "calls": len(recording.calls),
            "cpu_ms": cpu_ms,
            "summary": summary,
            "ratios": ratios,
            "median_ratio": ratio,
            "mismatches": mismatches,
        }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
