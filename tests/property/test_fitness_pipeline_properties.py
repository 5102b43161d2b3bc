"""Property-based value-transparency of the staged fitness pipeline.

Random backends, seeds, fault patterns and knob combinations: enabling
the in-process/persistent cache tiers and/or racing early-rejection must
never change a single byte of any evolution trajectory — best genotypes,
parent-fitness traces, evaluation and reconfiguration counts all
identical to the knobs-off run (the v1.8.0 evaluation behaviour).
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evolution import ParallelEvolution
from repro.core.platform import EvolvableHardwarePlatform
from repro.imaging.images import make_training_pair


def _platform(backend, seed, n_faults):
    platform = EvolvableHardwarePlatform(n_arrays=2, seed=seed, backend=backend)
    rng = np.random.default_rng(seed + 1)
    for _ in range(n_faults):
        platform.inject_permanent_fault(
            int(rng.integers(0, 2)), int(rng.integers(0, 4)), int(rng.integers(0, 4))
        )
    return platform


def _run(backend, seed, n_faults, pair, *, racing=False, fitness_cache=None):
    driver = ParallelEvolution(
        platform=_platform(backend, seed, n_faults),
        n_offspring=5,
        mutation_rate=3,
        rng=seed,
        racing=racing,
        fitness_cache=fitness_cache,
    )
    return driver.run(pair.training, pair.reference, n_generations=5)


def _assert_equal(a, b):
    assert a.best_fitness == b.best_fitness
    assert a.best_genotypes == b.best_genotypes
    assert a.fitness_history == b.fitness_history
    assert a.n_evaluations == b.n_evaluations
    assert a.n_reconfigurations == b.n_reconfigurations
    assert a.platform_time_s == b.platform_time_s


@settings(max_examples=12, deadline=None)
@given(
    backend=st.sampled_from(["reference", "numpy"]),
    seed=st.integers(0, 2**16),
    n_faults=st.integers(0, 2),
    racing=st.booleans(),
    persistent=st.booleans(),
)
def test_pipeline_knobs_never_change_trajectories(
    backend, seed, n_faults, racing, persistent
):
    pair = make_training_pair(
        "salt_pepper_denoise", size=16, seed=seed % 97, noise_level=0.15
    )
    baseline = _run(backend, seed, n_faults, pair)
    if not persistent:
        _assert_equal(baseline, _run(backend, seed, n_faults, pair, racing=racing))
        return
    with tempfile.TemporaryDirectory() as root:
        cold = _run(backend, seed, n_faults, pair, racing=racing, fitness_cache=root)
        _assert_equal(baseline, cold)
        # The warm rerun is served from the persistent tier yet must still
        # reproduce the identical trajectory.
        warm = _run(backend, seed, n_faults, pair, racing=racing, fitness_cache=root)
        _assert_equal(baseline, warm)
