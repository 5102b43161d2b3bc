"""Benchmark: a repeated 128x128 evolution memoises its planes without page faults.

The numpy engine memoises one ``(H, W)`` plane per evaluated subcircuit:
several hundred per Fig. 12 evolution at 128x128, 16 KB each.  Given a
fresh array each, a process that runs evolution after evolution faults
every one of those pages in again once the previous run's memory went
back to the OS: about 4 minor faults per plane, and 16-20% of the
scoreboard's evolve-fig12 wall time spent in the kernel.  The engine
writes memoised planes into slots of pooled slabs instead, which the next
run's plane stores reuse.

This gate runs one evolution to warm the process up, then a second
identical one, and counts ``ru_minflt`` over the second run per plane it
memoised: at most ``MAX_FAULTS_PER_PLANE``.  Counts, not timings, so a
loaded host cannot flake it.  Linux only (``ru_minflt`` is not comparable
across kernels).
"""

import gc
import sys

import pytest
from conftest import print_table

from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig, TaskSpec

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts Linux minor page faults"
)

IMAGE_SIDE = 128
MAX_FAULTS_PER_PLANE = 0.5


def _evolve_and_count(pair):
    """One Fig. 12 run: (minor faults during the run, planes it memoised)."""
    import resource

    session = EvolutionSession(
        PlatformConfig(n_arrays=3, seed=12, backend="numpy"),
        EvolutionConfig(
            strategy="parallel", n_generations=40, n_offspring=9, mutation_rate=3, seed=12
        ),
    )
    backends = [acb.array._backend for acb in session.platform.acbs]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    session.evolve(pair)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    planes = sum(
        store.nbytes for backend in backends for store in backend._stores.values()
    ) // (IMAGE_SIDE * IMAGE_SIDE)
    return faults, planes


def test_repeated_evolution_memoises_planes_without_page_faults(run_once):
    pair = TaskSpec(
        task="salt_pepper_denoise", image_side=IMAGE_SIDE, noise_level=0.1, seed=12
    ).build()

    def workload():
        _evolve_and_count(pair)  # warm-up: imports, first slabs, caches
        gc.collect()
        return _evolve_and_count(pair)

    faults, planes = run_once(workload)
    per_plane = faults / planes
    print_table(
        f"Second {IMAGE_SIDE}x{IMAGE_SIDE} parallel evolution in one process",
        [{"minor faults": faults, "memoised planes": planes, "per plane": per_plane}],
        ["minor faults", "memoised planes", "per plane"],
    )
    assert planes > 100, f"the run memoised only {planes} planes"
    assert per_plane <= MAX_FAULTS_PER_PLANE, (
        f"{faults} minor page faults for {planes} memoised planes "
        f"({per_plane:.2f} per plane); the gate is {MAX_FAULTS_PER_PLANE}"
    )
