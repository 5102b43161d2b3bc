"""Benchmark: fused population evaluation vs the per-candidate loop.

The evolution drivers score all λ offspring of a generation through one
:meth:`repro.array.systolic_array.SystolicArray.evaluate_population` call
instead of sweeping the array and reducing the error candidate by
candidate.  This benchmark runs both on the Fig. 12/13 measured workload —
λ = 9 offspring per generation, mutation rates k = 1, 3, 5, 32x32
training image — on the same (uncached) array, checks bit-exact
agreement, and asserts the ≥ 2x aggregate speedup of the population entry
point.
"""

import time

import numpy as np

from conftest import print_table

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.ea.mutation import mutate
from repro.imaging.images import make_training_pair
from repro.imaging.metrics import sae

IMAGE_SIDE = 32
N_OFFSPRING = 9
MUTATION_RATES = (1, 3, 5)
N_GENERATIONS = 300
REPEATS = 5


def _measure(run, repeats=REPEATS):
    """Best-of-N wall-clock time of ``run()`` (returns (seconds, result))."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batch_evaluation_speedup(run_once):
    pair = make_training_pair(
        "salt_pepper_denoise", size=IMAGE_SIDE, seed=2013, noise_level=0.1
    )
    array = SystolicArray()
    planes = extract_windows(pair.training)

    rows = []
    total_sequential = 0.0
    total_population = 0.0
    for k in MUTATION_RATES:
        rng = np.random.default_rng(3)
        parent = Genotype.random(array.geometry.spec(), rng)
        generations = [
            [mutate(parent, k, rng).genotype for _ in range(N_OFFSPRING)]
            for _ in range(N_GENERATIONS)
        ]

        sequential_s, sequential = _measure(
            lambda: [
                [sae(array.process_planes(planes, genotype), pair.reference) for genotype in batch]
                for batch in generations
            ]
        )
        population_s, population = _measure(
            lambda: [
                array.evaluate_population(planes, batch, pair.reference).tolist()
                for batch in generations
            ]
        )
        assert sequential == population  # bit-exact parity
        total_sequential += sequential_s
        total_population += population_s
        rows.append(
            {
                "k": k,
                "sequential_s": sequential_s,
                "population_s": population_s,
                "speedup": sequential_s / population_s,
            }
        )

    aggregate = total_sequential / total_population
    rows.append(
        {
            "k": "all",
            "sequential_s": total_sequential,
            "population_s": total_population,
            "speedup": aggregate,
        }
    )
    print_table(
        f"Population vs per-candidate evaluation "
        f"({N_OFFSPRING} offspring/gen, {N_GENERATIONS} generations, "
        f"{IMAGE_SIDE}x{IMAGE_SIDE} image)",
        rows,
        columns=["k", "sequential_s", "population_s", "speedup"],
    )

    # The population entry point must at least halve the evaluation cost of
    # the Fig. 12/13 workload.
    assert aggregate >= 2.0, f"population evaluation speedup {aggregate:.2f}x < 2x"

    # run_once records one timed pass for the benchmark report.
    run_once(
        lambda: [
            array.evaluate_population(planes, batch, pair.reference) for batch in generations
        ]
    )
