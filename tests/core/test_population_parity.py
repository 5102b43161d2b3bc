"""Bit-parity of the generation step's fast layers against their references.

Each fast entry point of the drivers' generation step —
``mutate_population`` offspring construction, vectorised placement
accounting and the backend's fused ``evaluate_population`` — must be
*byte-identical* to the per-candidate function it replaces for fixed
seeds: same fitness floats, same genotypes, same reconfiguration counts,
same fault-RNG stream consumption.  Whole-run trajectories are pinned by
``tests/core/test_golden_trajectories.py``.
"""

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.core.evolution import ArrayEvalContext, ParallelEvolution
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.ea.fitness import FitnessEvaluator
from repro.ea.mutation import mutate, mutate_population
from repro.imaging.images import make_training_pair
from repro.imaging.metrics import sae

BACKENDS = ("reference", "numpy")
FAULTS = ("healthy", "faulty")


def make_platform(backend: str, faults: str) -> EvolvableHardwarePlatform:
    platform = EvolvableHardwarePlatform(n_arrays=3, seed=5, backend=backend)
    if faults == "faulty":
        platform.inject_permanent_fault(0, 1, 1)
        platform.inject_permanent_fault(1, 2, 0)
    return platform


@pytest.fixture(scope="module")
def pair():
    return make_training_pair("salt_pepper_denoise", size=24, seed=7, noise_level=0.1)


# --------------------------------------------------------------------------- #
# Backend entry point: evaluate_population vs the per-candidate loop
# --------------------------------------------------------------------------- #
class TestEvaluatePopulation:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_matches_per_candidate_loop(self, backend, faults):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        reference = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        planes = extract_windows(image)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(11)]

        def build():
            array = SystolicArray(backend=backend)
            if faults == "faulty":
                array.inject_fault((1, 1), seed=77)
                array.inject_fault((0, 3), seed=88)
            return array

        values = build().evaluate_population(planes, genotypes, reference)
        assert values.dtype == np.float64 and values.shape == (len(genotypes),)
        sequential_array = build()
        expected = [
            sae(sequential_array.process_planes(planes, genotype), reference)
            for genotype in genotypes
        ]
        assert values.tolist() == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_consumes_fault_streams_like_per_candidate(self, backend):
        """Repeated population calls must advance each per-position stream
        exactly as repeated per-candidate evaluation does."""
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        reference = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        planes = extract_windows(image)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(5)]

        population_array = SystolicArray(backend=backend)
        population_array.inject_fault((2, 2), seed=9)
        sequential_array = SystolicArray(backend=backend)
        sequential_array.inject_fault((2, 2), seed=9)

        for _ in range(3):  # three rounds: streams must stay aligned
            values = population_array.evaluate_population(planes, genotypes, reference)
            expected = [
                sae(sequential_array.process_planes(planes, genotype), reference)
                for genotype in genotypes
            ]
            assert values.tolist() == expected

    def test_cross_backend_identical(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(18, 18), dtype=np.uint8)
        reference = rng.integers(0, 256, size=(18, 18), dtype=np.uint8)
        planes = extract_windows(image)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(9)]
        results = {}
        for backend in BACKENDS:
            array = SystolicArray(backend=backend)
            array.inject_fault((3, 1), seed=13)
            results[backend] = array.evaluate_population(planes, genotypes, reference)
        for backend in BACKENDS[1:]:
            assert results["reference"].tolist() == results[backend].tolist()

    def test_validates_inputs(self):
        array = SystolicArray()
        planes = extract_windows(np.zeros((12, 12), dtype=np.uint8))
        genotype = Genotype.identity()
        with pytest.raises(ValueError):
            array.evaluate_population(planes, [], np.zeros((12, 12), dtype=np.uint8))
        with pytest.raises(ValueError):
            array.evaluate_population(
                planes, [genotype], np.zeros((5, 5), dtype=np.uint8)
            )


# --------------------------------------------------------------------------- #
# Offspring construction: mutate_population vs repeated mutate()
# --------------------------------------------------------------------------- #
class TestMutatePopulation:
    def test_bit_exact_and_stream_aligned(self):
        parent = Genotype.random(rng=np.random.default_rng(8))
        loop_rng = np.random.default_rng(42)
        batch_rng = np.random.default_rng(42)
        loop = [mutate(parent, 3, loop_rng) for _ in range(40)]
        batch = mutate_population(parent, 3, batch_rng, 40)
        for a, b in zip(loop, batch):
            assert a.genotype == b.genotype
            assert a.mutated_indices == b.mutated_indices
            assert a.changed_pe_positions == b.changed_pe_positions
        # Both generators must have consumed exactly the same stream.
        assert loop_rng.integers(0, 1 << 30) == batch_rng.integers(0, 1 << 30)

    def test_validates_arguments(self):
        parent = Genotype.identity()
        with pytest.raises(ValueError):
            mutate_population(parent, 0, np.random.default_rng(0), 4)
        with pytest.raises(ValueError):
            mutate_population(parent, 3, np.random.default_rng(0), 0)

    def test_offspring_are_independent_objects(self):
        parent = Genotype.identity()
        batch = mutate_population(parent, 1, np.random.default_rng(1), 8)
        snapshots = [result.genotype.copy() for result in batch]
        batch[0].genotype.function_genes[0, 0] = 9
        batch[0].genotype.west_mux[0] = 7
        # The write must not leak into the parent or any sibling buffer.
        assert parent == Genotype.identity()
        for result, snapshot in zip(batch[1:], snapshots[1:]):
            assert result.genotype == snapshot
        # validate() accepts every constructed offspring
        for snapshot in snapshots:
            snapshot.validate()


# --------------------------------------------------------------------------- #
# Context layer: placement accounting and the genotype-keyed fitness cache
# --------------------------------------------------------------------------- #
class TestEvalContext:
    def test_place_population_matches_sequential(self, pair):
        platform_a = EvolvableHardwarePlatform(n_arrays=1, seed=1)
        platform_b = EvolvableHardwarePlatform(n_arrays=1, seed=1)
        context_a = ArrayEvalContext(platform_a, 0, pair.training)
        context_b = ArrayEvalContext(platform_b, 0, pair.training)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(7)]
        sequential = [context_a.place(genotype) for genotype in genotypes]
        batched = context_b.place_population(genotypes)
        assert sequential == batched
        assert np.array_equal(context_a.placed_functions, context_b.placed_functions)

    def test_fitness_population_cache_hits_are_exact(self, pair):
        platform = EvolvableHardwarePlatform(n_arrays=1, seed=1, backend="numpy")
        context = ArrayEvalContext(platform, 0, pair.training)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(4)]
        first = context.fitness_population(genotypes, pair.reference)
        again = context.fitness_population(genotypes, pair.reference)
        assert first == again
        assert first == [context.fitness(g, pair.reference) for g in genotypes]

    def test_cache_invalidated_on_retarget_and_new_reference(self, pair):
        platform = EvolvableHardwarePlatform(n_arrays=1, seed=1)
        context = ArrayEvalContext(platform, 0, pair.training)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(3)]
        context.fitness_population(genotypes, pair.reference)
        other_reference = np.asarray(pair.reference).copy()
        other_reference[0, 0] ^= 0xFF
        changed = context.fitness_population(genotypes, other_reference)
        assert changed == [context.fitness(g, other_reference) for g in genotypes]
        context.retarget(np.asarray(pair.reference))
        after = context.fitness_population(genotypes, other_reference)
        assert after == [context.fitness(g, other_reference) for g in genotypes]

    def test_faulty_array_bypasses_cache(self, pair):
        """On a faulty array every call must consume fresh fault draws, so
        two identical calls are allowed to (and here do) differ — exactly
        like the per-candidate loop."""
        platform = EvolvableHardwarePlatform(n_arrays=1, seed=1)
        platform.inject_permanent_fault(0, 0, 0)
        context = ArrayEvalContext(platform, 0, pair.training)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(3)]
        first = context.fitness_population(genotypes, pair.reference)

        twin = EvolvableHardwarePlatform(n_arrays=1, seed=1)
        twin.inject_permanent_fault(0, 0, 0)
        twin_context = ArrayEvalContext(twin, 0, pair.training)
        expected_first = [twin_context.fitness(g, pair.reference) for g in genotypes]
        assert first == expected_first
        second = context.fitness_population(genotypes, pair.reference)
        expected_second = [twin_context.fitness(g, pair.reference) for g in genotypes]
        assert second == expected_second


# --------------------------------------------------------------------------- #
# Telemetry: the pipeline's cache counters surface on the result
# --------------------------------------------------------------------------- #
_STAT_KEYS = (
    "hits", "misses", "bypasses", "persistent_hits", "persistent_misses",
    "full_evaluations", "partial_evaluations", "racing_rejected",
)


@pytest.mark.parametrize("backend", BACKENDS)
class TestFitnessCacheTelemetry:
    """``fitness_cache_stats`` is observability, not part of the trajectory
    contract: how candidates are grouped onto contexts decides the hit/miss
    split, never a fitness value."""

    def _run(self, backend, faults, pair, **kwargs):
        driver = ParallelEvolution(
            platform=make_platform(backend, faults),
            n_offspring=9,
            mutation_rate=3,
            rng=11,
            **kwargs,
        )
        return driver.run(pair.training, pair.reference, n_generations=10)

    def test_healthy_run_counts_misses_not_bypasses(self, backend, pair):
        stats = self._run(backend, "healthy", pair).fitness_cache_stats
        assert set(_STAT_KEYS) <= set(stats)
        assert all(stats[key] >= 0 for key in _STAT_KEYS)
        assert stats["misses"] > 0
        assert stats["bypasses"] == 0
        # Without persistent tier or racing, every miss is a full evaluation.
        assert stats["full_evaluations"] == stats["misses"]
        assert stats["persistent_hits"] == stats["persistent_misses"] == 0
        assert stats["partial_evaluations"] == stats["racing_rejected"] == 0

    def test_faulty_run_counts_bypasses(self, backend, pair):
        stats = self._run(backend, "faulty", pair).fitness_cache_stats
        # Two of the three arrays carry faults: their evaluations must
        # bypass every cache tier — visibly, not silently.
        assert stats["bypasses"] > 0
        assert stats["full_evaluations"] >= stats["bypasses"]

    def test_stats_present_on_every_driver(self, backend, pair):
        result = self._run(backend, "healthy", pair)
        assert isinstance(result.fitness_cache_stats, dict)
        two_level = TwoLevelMutationEvolution(
            platform=make_platform(backend, "healthy"),
            n_offspring=9,
            mutation_rate=3,
            rng=11,
        ).run(pair.training, pair.reference, n_generations=6)
        assert two_level.fitness_cache_stats["misses"] > 0


# --------------------------------------------------------------------------- #
# Single-array (1+lambda) strategy
# --------------------------------------------------------------------------- #
class TestOnePlusLambdaPopulation:
    def _evaluator(self, pair, backend="numpy"):
        array = SystolicArray(backend=backend)
        return FitnessEvaluator(array, pair.training, pair.reference)

    def test_evaluator_population_matches_scalar(self, pair):
        evaluator = self._evaluator(pair, backend="reference")
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(6)]
        values = evaluator.evaluate_population(genotypes)
        assert values == [evaluator.evaluate(g) for g in genotypes]
        assert evaluator.n_evaluations == 12
