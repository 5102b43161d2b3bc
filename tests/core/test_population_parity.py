"""Bit-parity of the generation step's fast layers against their references.

Each fast entry point of the drivers' generation step —
``mutate_population`` offspring construction (one block of generator
words replaying NumPy's samplers, compared on the full generator state),
vectorised placement
accounting and the backend's fused ``evaluate_population`` — must be
*byte-identical* to the per-candidate function it replaces for fixed
seeds: same fitness floats, same genotypes, same reconfiguration counts,
same fault-RNG stream consumption.  Whole-run trajectories are pinned by
``tests/core/test_golden_trajectories.py``.
"""

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.core.evolution import ArrayEvalContext, ParallelEvolution
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.ea.mutation import mutate, mutate_population, population_mutator
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
# Offspring construction: the one-block kernel vs repeated mutate()
# --------------------------------------------------------------------------- #
#: The kernel replays NumPy's samplers; when an upgrade changes them, say so.
NUMPY_DRIFT = (
    f"the population mutator no longer reproduces the draws of NumPy "
    f"{np.__version__}: changing the mutation draw order is a versioned "
    "decision with re-pinned goldens, never a silent change"
)
BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts (MT19937 holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def twin_generators(bit_generator, seed):
    """Two generators in one state, each holding a buffered half-word."""
    twins = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        rng.integers(0, 7)
        twins.append(rng)
    return twins


def reference_plan(parent, plan, rng):
    """``mutate`` called once per ``(source, rate)`` entry, in plan order."""
    results = []
    for source, rate in plan:
        results.append(mutate(parent if source < 0 else results[source].genotype, rate, rng))
    return results


def assert_same_generation(reference, batch, reference_rng, batch_rng):
    assert len(reference) == len(batch)
    for a, b in zip(reference, batch):
        assert a.genotype == b.genotype, NUMPY_DRIFT
        assert a.mutated_indices == b.mutated_indices, NUMPY_DRIFT
        assert a.changed_pe_positions == b.changed_pe_positions, NUMPY_DRIFT
    # Both generators must have consumed exactly the same stream.
    assert same_state(reference_rng.bit_generator.state, batch_rng.bit_generator.state), NUMPY_DRIFT


def two_level_plan(rate, low_rate, n_slots, n_offspring):
    return [
        (-1, rate) if position < n_slots else (position - n_slots, low_rate)
        for position in range(n_offspring)
    ]


class TestMutatePopulation:
    def test_bit_exact_and_stream_aligned(self):
        parent = Genotype.random(rng=np.random.default_rng(8))
        for bit_generator in BIT_GENERATORS:
            loop_rng, batch_rng = twin_generators(bit_generator, 42)
            loop = [mutate(parent, 3, loop_rng) for _ in range(40)]
            batch = mutate_population(parent, 3, batch_rng, 40)
            assert_same_generation(loop, batch, loop_rng, batch_rng)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("rows", range(1, 6))
    @pytest.mark.parametrize("cols", range(1, 6))
    def test_every_rate_on_every_small_spec(self, bit_generator, rows, cols):
        """k from 1 to ``n_genes`` (Floyd's wordless ``j = 0`` pick at the
        top), including specs whose output gene draws no word."""
        spec = GenotypeSpec(rows=rows, cols=cols)
        parent = Genotype.random(spec, np.random.default_rng(rows * 10 + cols))
        for rate in range(1, spec.n_genes + 1):
            loop_rng, batch_rng = twin_generators(bit_generator, rate)
            loop = [mutate(parent, rate, loop_rng) for _ in range(3)]
            batch = mutate_population(parent, rate, batch_rng, 3)
            assert_same_generation(loop, batch, loop_rng, batch_rng)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_two_level_plan_matches_mutate_chain(self, bit_generator):
        """Chained children: each later child mutates the previous batch's
        child on its slot at the low rate."""
        parent = Genotype.random(rng=np.random.default_rng(9))
        plan = two_level_plan(5, 1, 3, 10)
        loop_rng, batch_rng = twin_generators(bit_generator, 7)
        loop = reference_plan(parent, plan, loop_rng)
        batch = population_mutator(parent.spec).offspring(parent, plan, batch_rng)
        assert_same_generation(loop, batch, loop_rng, batch_rng)

    def test_two_level_driver_offspring_match_mutate_chain(self):
        platform = EvolvableHardwarePlatform(n_arrays=3, seed=5)
        driver = TwoLevelMutationEvolution(platform, n_offspring=9, mutation_rate=3, rng=4)
        contexts = [None] * 3  # only their count is read
        parent = Genotype.random(rng=np.random.default_rng(2))
        reference_rng = np.random.default_rng(4)
        offspring = driver._generation_offspring(parent, contexts)
        expected = reference_plan(parent, two_level_plan(3, 1, 3, 9), reference_rng)
        assert_same_generation(expected, offspring, reference_rng, driver.rng)

    @pytest.mark.parametrize("kind, offset", [("floyd", 8), ("shuffle", 11), ("value", 13)])
    def test_forced_lemire_rejection(self, kind, offset):
        """A zero word rejects on every span that is not a power of two.

        MT19937 tempering maps a zero key word to a zero output, so zeroing
        the key at a chosen read position forces a rejection in the second
        offspring's first Floyd pick (word 8 of 3 x (3 + 2 + 3)), first
        shuffle step (word 11) or first gene value (word 13).
        """
        spec = GenotypeSpec()
        budget = 3 * (3 + 2 + 3)
        for seed in range(40):
            parent = Genotype.random(spec, np.random.default_rng(seed))
            rng = np.random.Generator(np.random.MT19937(seed))
            while rng.bit_generator.state["state"]["pos"] + budget >= 624:
                rng.integers(0, 7)  # read past the next twist: key words then map 1:1
            state = rng.bit_generator.state
            start = state["state"]["pos"]
            state["state"]["key"][start + offset] = 0
            loop_rng = np.random.Generator(np.random.MT19937())
            batch_rng = np.random.Generator(np.random.MT19937())
            loop_rng.bit_generator.state = batch_rng.bit_generator.state = state
            loop = [mutate(parent, 3, loop_rng) for _ in range(3)]
            consumed = loop_rng.bit_generator.state["state"]["pos"] - start
            if consumed == budget + 1:  # the zero word was rejected
                break
        else:
            pytest.fail(f"no seed forces a {kind} rejection; {NUMPY_DRIFT}")
        batch = mutate_population(parent, 3, batch_rng, 3)
        assert_same_generation(loop, batch, loop_rng, batch_rng)

    def test_tail_shuffle_branch(self):
        """Above 10000 genes and k > n // 50, ``choice`` shuffles a tail of
        ``arange(n)`` instead of running Floyd's sampler."""
        spec = GenotypeSpec(rows=100, cols=100)
        assert spec.n_genes > 10000
        parent = Genotype.random(spec, np.random.default_rng(3))
        rate = spec.n_genes // 50 + 100
        loop_rng, batch_rng = twin_generators(np.random.PCG64, 12)
        loop = [mutate(parent, rate, loop_rng)]
        batch = mutate_population(parent, rate, batch_rng, 1)
        assert_same_generation(loop, batch, loop_rng, batch_rng)

    def test_rejects_bad_plans_before_drawing(self):
        parent = Genotype.identity()
        mutator = population_mutator(parent.spec)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for plan in ([(-1, 1), (-1, parent.spec.n_genes + 1)], [(-1, 1), (1, 1)]):
            with pytest.raises(ValueError):
                mutator.offspring(parent, plan, rng)
        assert rng.bit_generator.state == state

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
    "full_evaluations",
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
        # Without the persistent tier, every miss is a full evaluation.
        assert stats["full_evaluations"] == stats["misses"]
        assert stats["persistent_hits"] == stats["persistent_misses"] == 0

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
