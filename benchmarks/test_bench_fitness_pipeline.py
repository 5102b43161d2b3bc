"""Benchmark: the persistent fitness cache's warm-rerun gate.

The ``fitness_cache`` knob is value-transparent, so its *only*
justification is performance — which makes this benchmark its
acceptance gate.  A warm rerun of an identical workload (λ = 9 offspring
per generation, k = 5, a 128x128 salt-and-pepper image, 200 generations)
against a populated cache directory must be >= 3x faster than the cold
(publishing) run, serve every candidate from disk (zero full evaluations)
and still reproduce the identical trajectory.  The numpy backend keeps
this honest: its memoisation is per instance, so the cold run cannot
borrow state from a previous run.

Each arm is timed over ``N_TRIALS`` runs and the minima are compared —
the minimum is the cleanest estimate of intrinsic cost under noisy
neighbours, and the workload is deterministic, so every trial does
identical work.
"""

import shutil
import tempfile
import time

from conftest import print_table

from repro.core.evolution import ParallelEvolution
from repro.core.platform import EvolvableHardwarePlatform
from repro.imaging.images import make_training_pair

N_OFFSPRING = 9
MUTATION_RATE = 5
N_TRIALS = 2

MIN_WARM_SPEEDUP = 3.0


def _pair(size):
    return make_training_pair(
        "salt_pepper_denoise", size=size, seed=7, noise_level=0.3
    )


def _evolve(pair, backend, generations, *, fitness_cache=None):
    driver = ParallelEvolution(
        platform=EvolvableHardwarePlatform(n_arrays=3, seed=5, backend=backend),
        n_offspring=N_OFFSPRING,
        mutation_rate=MUTATION_RATE,
        rng=11,
        fitness_cache=fitness_cache,
    )
    start = time.perf_counter()
    result = driver.run(pair.training, pair.reference, n_generations=generations)
    return result, time.perf_counter() - start


def test_persistent_cache_warm_rerun_speedup(run_once):
    def workload():
        pair = _pair(128)
        times = {"cold": [], "warm": []}
        for _ in range(N_TRIALS):
            root = tempfile.mkdtemp(prefix="bench-fcache-")
            try:
                cold, seconds = _evolve(pair, "numpy", 200, fitness_cache=root)
                times["cold"].append(seconds)
                warm, seconds = _evolve(pair, "numpy", 200, fitness_cache=root)
                times["warm"].append(seconds)
            finally:
                shutil.rmtree(root, ignore_errors=True)
        return cold, warm, times

    cold, warm, times = run_once(workload)
    speedup = min(times["cold"]) / min(times["warm"])
    print_table(
        "Persistent fitness cache, cold vs warm rerun (128x128, numpy)",
        [
            {"run": "cold (publishing)", "best_s": min(times["cold"]),
             "full_evals": cold.fitness_cache_stats["full_evaluations"],
             "persistent_hits": cold.fitness_cache_stats["persistent_hits"]},
            {"run": "warm (served)", "best_s": min(times["warm"]),
             "full_evals": warm.fitness_cache_stats["full_evaluations"],
             "persistent_hits": warm.fitness_cache_stats["persistent_hits"]},
            {"run": "gate (x)", "best_s": speedup, "full_evals": None,
             "persistent_hits": None},
        ],
        columns=["run", "best_s", "full_evals", "persistent_hits"],
    )
    assert warm.best_genotypes == cold.best_genotypes
    assert warm.fitness_history == cold.fitness_history
    assert warm.fitness_cache_stats["full_evaluations"] == 0
    assert warm.fitness_cache_stats["persistent_hits"] > 0
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm rerun only {speedup:.2f}x faster than cold (< {MIN_WARM_SPEEDUP}x)"
    )
