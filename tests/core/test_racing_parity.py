"""Bit-parity of the racing and persistent-cache evaluation knobs.

Both pipeline knobs are *value-transparent*: racing rejects only
candidates whose exact partial-SAE lower bound proves they can neither
beat nor tie the parent, and cache tiers only ever serve values a full
evaluation produced.  For fixed seeds, every driver must therefore
produce byte-identical results — same best genotypes, same parent-fitness
traces, same reconfiguration counts — with the knobs on or off, on every
backend, with and without faults.  This suite pins that contract at the
driver and session level; ``tests/ea/test_pipeline.py`` covers the
stage-by-stage mechanics and ``tests/property/`` the randomised sweep.
"""

import json

import numpy as np
import pytest

from repro.api.config import EvolutionConfig, PlatformConfig
from repro.api.session import EvolutionSession
from repro.array.genotype import Genotype
from repro.core.evolution import (
    CascadedEvolution,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
)
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.imaging.images import make_training_pair

BACKENDS = ("reference", "numpy")
FAULTS = ("healthy", "faulty")


def make_platform(backend: str, faults: str) -> EvolvableHardwarePlatform:
    platform = EvolvableHardwarePlatform(n_arrays=3, seed=5, backend=backend)
    if faults == "faulty":
        platform.inject_permanent_fault(0, 1, 1)
        platform.inject_permanent_fault(1, 2, 0)
    return platform


def assert_results_equal(a, b) -> None:
    """Field-by-field byte equality of two PlatformEvolutionResults.

    ``fitness_cache_stats`` is deliberately not compared: it is telemetry
    about *how* values were obtained (hits vs fresh evaluations), which
    legitimately differs across knob settings while every value-bearing
    field stays identical.
    """
    assert a.best_fitness == b.best_fitness
    assert a.best_genotypes == b.best_genotypes
    assert a.fitness_history == b.fitness_history
    assert a.n_reconfigurations == b.n_reconfigurations
    assert a.n_evaluations == b.n_evaluations
    assert a.platform_time_s == b.platform_time_s


@pytest.fixture(scope="module")
def pair():
    return make_training_pair("salt_pepper_denoise", size=24, seed=7, noise_level=0.1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("faults", FAULTS)
class TestRacingDriverParity:
    def _kwargs(self, backend, faults, racing, **extra):
        return dict(
            platform=make_platform(backend, faults),
            n_offspring=9,
            mutation_rate=3,
            rng=11,
            racing=racing,
            **extra,
        )

    def test_parallel(self, backend, faults, pair):
        a = ParallelEvolution(**self._kwargs(backend, faults, False)).run(
            pair.training, pair.reference, n_generations=12
        )
        b = ParallelEvolution(**self._kwargs(backend, faults, True)).run(
            pair.training, pair.reference, n_generations=12
        )
        assert_results_equal(a, b)

    def test_two_level(self, backend, faults, pair):
        a = TwoLevelMutationEvolution(**self._kwargs(backend, faults, False)).run(
            pair.training, pair.reference, n_generations=12
        )
        b = TwoLevelMutationEvolution(**self._kwargs(backend, faults, True)).run(
            pair.training, pair.reference, n_generations=12
        )
        assert_results_equal(a, b)

    def test_independent(self, backend, faults, pair):
        tasks = {index: (pair.training, pair.reference) for index in range(3)}
        a = IndependentEvolution(**self._kwargs(backend, faults, False)).run(
            tasks, n_generations=6
        )
        b = IndependentEvolution(**self._kwargs(backend, faults, True)).run(
            tasks, n_generations=6
        )
        assert_results_equal(a, b)

    def test_cascaded(self, backend, faults, pair):
        a = CascadedEvolution(**self._kwargs(backend, faults, False)).run(
            pair.training, pair.reference, n_generations=5
        )
        b = CascadedEvolution(**self._kwargs(backend, faults, True)).run(
            pair.training, pair.reference, n_generations=5
        )
        assert_results_equal(a, b)

    def test_imitation(self, backend, faults, pair):
        def run(racing):
            platform = make_platform(backend, faults)
            master = Genotype.random(platform.spec, np.random.default_rng(21))
            platform.configure_array(1, master)
            driver = ImitationEvolution(
                platform, n_offspring=9, mutation_rate=3, rng=11, racing=racing
            )
            return driver.run(0, 1, pair.training, n_generations=8)

        assert_results_equal(run(False), run(True))


@pytest.mark.parametrize("backend", BACKENDS)
class TestPersistentCacheDriverParity:
    def test_cold_and_warm_runs_match_uncached(self, backend, pair, tmp_path):
        def run(fitness_cache):
            driver = ParallelEvolution(
                platform=make_platform(backend, "healthy"),
                n_offspring=9,
                mutation_rate=3,
                rng=11,
                fitness_cache=fitness_cache,
            )
            return driver.run(pair.training, pair.reference, n_generations=10)

        plain = run(None)
        root = str(tmp_path / "fcache")
        cold = run(root)
        warm = run(root)
        assert_results_equal(plain, cold)
        assert_results_equal(plain, warm)
        assert cold.fitness_cache_stats["persistent_misses"] > 0
        # The warm rerun serves every first-seen candidate from disk.
        assert warm.fitness_cache_stats["persistent_hits"] > 0
        assert warm.fitness_cache_stats["full_evaluations"] == 0

    def test_faulty_runs_never_touch_the_cache(self, backend, pair, tmp_path):
        def run(fitness_cache):
            driver = ParallelEvolution(
                platform=make_platform(backend, "faulty"),
                n_offspring=9,
                mutation_rate=3,
                rng=11,
                fitness_cache=fitness_cache,
            )
            return driver.run(pair.training, pair.reference, n_generations=8)

        root = tmp_path / "fcache"
        a = run(None)
        b = run(str(root))
        assert_results_equal(a, b)
        stats = b.fitness_cache_stats
        # Two of the three arrays carry faults: their evaluations bypass;
        # only the healthy array's candidates may reach the tiers.
        assert stats["bypasses"] > 0
        assert stats["persistent_hits"] == 0


# --------------------------------------------------------------------------- #
# Session level: serialised artifacts byte-identical across all knob settings
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_session_artifacts_byte_identical_across_knobs(backend, pair, tmp_path):
    """The acceptance-criterion form: for fixed seeds the serialised run
    results with racing and/or the persistent cache enabled are
    byte-identical to the plain run — the both-knobs-off path being the
    v1.8.0 evaluation behaviour the determinism gate pins."""

    def run(racing, fitness_cache):
        session = EvolutionSession(
            make_platform(backend, "healthy"),
            EvolutionConfig(
                strategy="parallel",
                n_generations=10,
                seed=11,
                racing=racing,
                fitness_cache=fitness_cache,
            ),
        )
        artifact = session.evolve((pair.training, pair.reference))
        return json.dumps(artifact.results, sort_keys=True)

    root = str(tmp_path / "fcache")
    baseline = run(False, None)
    assert run(True, None) == baseline
    assert run(False, root) == baseline
    assert run(True, root) == baseline  # warm cache + racing combined
