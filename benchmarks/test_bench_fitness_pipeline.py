"""Benchmark: the staged fitness pipeline's racing and persistent-cache gates.

Both pipeline knobs are value-transparent, so their *only* justification
is performance — which makes these benchmarks the acceptance gates:

* **Racing early rejection** on the Fig. 12/13 evolution workload
  (λ = 9 offspring per generation, the sweep's top mutation rate k = 5,
  a 256x256 salt-and-pepper image, 150 generations): the exact
  partial-SAE bound must cut full evaluations by >= 2x and end-to-end
  wall clock by >= 1.3x, while the final genotypes and the whole
  parent-fitness trajectory stay identical to the exhaustive run.  The
  gate runs on the reference engine, whose evaluation cost is strictly
  proportional to the rows evaluated — a stable wall-clock signal on a
  noisy CI box, where the numpy engine's memoised evaluations are
  already cheap enough that racing's win drowns in cache effects.  The
  backends are bit-exact by contract (the parity suites enforce it), so
  the evaluation cut carries over unchanged.
* **Persistent fitness cache**: a warm rerun of an identical workload
  against a populated cache directory must be >= 3x faster than the
  cold (publishing) run, serve every candidate from disk (zero full
  evaluations) and still reproduce the identical trajectory.  The numpy
  backend keeps this honest: its memoisation is per instance, so the
  cold run cannot borrow state from a previous run.

Each arm is timed over ``N_TRIALS`` runs and the minima are compared —
the minimum is the cleanest estimate of intrinsic cost under noisy
neighbours, and both workloads are deterministic, so every trial does
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

MIN_FULL_EVAL_CUT = 2.0
MIN_RACING_SPEEDUP = 1.3
MIN_WARM_SPEEDUP = 3.0


def _pair(size):
    return make_training_pair(
        "salt_pepper_denoise", size=size, seed=7, noise_level=0.3
    )


def _evolve(pair, backend, generations, *, racing=False, fitness_cache=None):
    driver = ParallelEvolution(
        platform=EvolvableHardwarePlatform(n_arrays=3, seed=5, backend=backend),
        n_offspring=N_OFFSPRING,
        mutation_rate=MUTATION_RATE,
        rng=11,
        racing=racing,
        fitness_cache=fitness_cache,
    )
    start = time.perf_counter()
    result = driver.run(pair.training, pair.reference, n_generations=generations)
    return result, time.perf_counter() - start


def test_racing_cuts_full_evaluations_and_time(run_once):
    def workload():
        pair = _pair(256)
        times = {"exhaustive": [], "racing": []}
        for _ in range(N_TRIALS):
            exhaustive, seconds = _evolve(pair, "reference", 150)
            times["exhaustive"].append(seconds)
            raced, seconds = _evolve(pair, "reference", 150, racing=True)
            times["racing"].append(seconds)
        return exhaustive, raced, times

    exhaustive, raced, times = run_once(workload)
    off, on = exhaustive.fitness_cache_stats, raced.fitness_cache_stats
    cut = off["full_evaluations"] / max(1, on["full_evaluations"])
    speedup = min(times["exhaustive"]) / min(times["racing"])
    print_table(
        "Racing on the Fig. 12/13 workload (256x256, k=5, 150 generations)",
        [
            {"mode": "exhaustive", "best_s": min(times["exhaustive"]),
             "full_evals": off["full_evaluations"], "rejected": 0},
            {"mode": "racing", "best_s": min(times["racing"]),
             "full_evals": on["full_evaluations"],
             "rejected": on["racing_rejected"]},
            {"mode": "gate (x)", "best_s": speedup, "full_evals": cut,
             "rejected": None},
        ],
        columns=["mode", "best_s", "full_evals", "rejected"],
    )
    # Exactness first: racing must not move a single trajectory byte.
    assert raced.best_genotypes == exhaustive.best_genotypes
    assert raced.best_fitness == exhaustive.best_fitness
    assert raced.fitness_history == exhaustive.fitness_history
    # The perf gates the knob exists for.
    assert cut >= MIN_FULL_EVAL_CUT, (
        f"racing cut full evaluations only {cut:.2f}x (< {MIN_FULL_EVAL_CUT}x)"
    )
    assert speedup >= MIN_RACING_SPEEDUP, (
        f"racing end-to-end speedup {speedup:.2f}x (< {MIN_RACING_SPEEDUP}x)"
    )


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
