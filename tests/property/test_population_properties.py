"""Property-based parity of the population evaluation entry points.

Random population sizes, geometries, seeds and fault patterns: the fused
``evaluate_population`` entry point and the population mutation operator
must reproduce the per-candidate loop bit for bit on every draw; the
mutation operator must also leave every bit generator in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.ea.mutation import mutate, mutate_population, population_mutator
from repro.imaging.metrics import sae


def _random_images(rng, side):
    image = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
    reference = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
    return image, reference


@settings(max_examples=25, deadline=None)
@given(
    backend=st.sampled_from(["reference", "numpy"]),
    population=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    side=st.integers(8, 16),
    n_faults=st.integers(0, 3),
)
def test_evaluate_population_matches_per_candidate(
    backend, population, seed, side, n_faults
):
    rng = np.random.default_rng(seed)
    image, reference = _random_images(rng, side)
    planes = extract_windows(image)
    genotypes = [
        Genotype.random(GenotypeSpec(), np.random.default_rng(seed + index))
        for index in range(population)
    ]
    positions = [
        (int(rng.integers(0, 4)), int(rng.integers(0, 4))) for _ in range(n_faults)
    ]

    def build():
        array = SystolicArray(backend=backend)
        for index, position in enumerate(positions):
            array.inject_fault(position, seed=seed + 100 + index)
        return array

    values = build().evaluate_population(planes, genotypes, reference)
    sequential_array = build()
    expected = [
        sae(sequential_array.process_planes(planes, genotype), reference)
        for genotype in genotypes
    ]
    assert values.tolist() == expected


#: The kernel replays NumPy's samplers; when an upgrade changes them, say so.
NUMPY_DRIFT = (
    f"the population mutator no longer reproduces the draws of NumPy "
    f"{np.__version__}: changing the mutation draw order is a versioned "
    "decision with re-pinned goldens, never a silent change"
)
BIT_GENERATORS = st.sampled_from(
    [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
)


def _same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts (MT19937 holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _twin_generators(bit_generator, seed):
    """Two generators in one state, each holding a buffered half-word."""
    twins = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        rng.integers(0, 7)
        twins.append(rng)
    return twins


def _assert_same_generation(reference, batch, reference_rng, batch_rng):
    assert len(reference) == len(batch)
    for a, b in zip(reference, batch):
        assert a.genotype == b.genotype, NUMPY_DRIFT
        assert a.mutated_indices == b.mutated_indices, NUMPY_DRIFT
        assert a.changed_pe_positions == b.changed_pe_positions, NUMPY_DRIFT
    assert _same_state(
        reference_rng.bit_generator.state, batch_rng.bit_generator.state
    ), NUMPY_DRIFT


@settings(max_examples=25, deadline=None)
@given(
    population=st.integers(1, 16),
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    bit_generator=BIT_GENERATORS,
    data=st.data(),
)
def test_mutate_population_matches_mutate_loop(
    population, seed, rows, cols, bit_generator, data
):
    spec = GenotypeSpec(rows=rows, cols=cols)
    mutation_rate = data.draw(st.integers(1, spec.n_genes), label="mutation_rate")
    parent = Genotype.random(spec, np.random.default_rng(seed))
    loop_rng, batch_rng = _twin_generators(bit_generator, seed + 1)
    loop = [mutate(parent, mutation_rate, loop_rng) for _ in range(population)]
    batch = mutate_population(parent, mutation_rate, batch_rng, population)
    _assert_same_generation(loop, batch, loop_rng, batch_rng)


@settings(max_examples=25, deadline=None)
@given(
    population=st.integers(1, 16),
    n_slots=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    bit_generator=BIT_GENERATORS,
    data=st.data(),
)
def test_chained_plan_matches_mutate_chain(
    population, n_slots, seed, rows, cols, bit_generator, data
):
    """The two-level plan: later children mutate an earlier child."""
    spec = GenotypeSpec(rows=rows, cols=cols)
    rate = data.draw(st.integers(1, spec.n_genes), label="rate")
    low_rate = data.draw(st.integers(1, spec.n_genes), label="low_rate")
    plan = [
        (-1, rate) if position < n_slots else (position - n_slots, low_rate)
        for position in range(population)
    ]
    parent = Genotype.random(spec, np.random.default_rng(seed))
    loop_rng, batch_rng = _twin_generators(bit_generator, seed + 1)
    loop = []
    for source, k in plan:
        loop.append(mutate(parent if source < 0 else loop[source].genotype, k, loop_rng))
    batch = population_mutator(spec).offspring(parent, plan, batch_rng)
    _assert_same_generation(loop, batch, loop_rng, batch_rng)


@settings(max_examples=15, deadline=None)
@given(
    population=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    rounds=st.integers(1, 3),
)
def test_repeated_population_calls_track_fault_streams(population, seed, rounds):
    """Across multiple evaluation rounds the per-position fault streams of
    the population path and the per-candidate path stay aligned."""
    rng = np.random.default_rng(seed)
    image, reference = _random_images(rng, 12)
    planes = extract_windows(image)
    genotypes = [
        Genotype.random(GenotypeSpec(), np.random.default_rng(seed + index))
        for index in range(population)
    ]
    population_array = SystolicArray(backend="numpy")
    population_array.inject_fault((1, 2), seed=seed)
    sequential_array = SystolicArray(backend="reference")
    sequential_array.inject_fault((1, 2), seed=seed)
    for _ in range(rounds):
        values = population_array.evaluate_population(planes, genotypes, reference)
        expected = [
            sae(sequential_array.process_planes(planes, genotype), reference)
            for genotype in genotypes
        ]
        assert values.tolist() == expected
