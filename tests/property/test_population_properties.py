"""Property-based parity of the population evaluation entry points.

Random population sizes, geometries, seeds and fault patterns: the fused
``evaluate_population`` entry point and the population mutation operator
must reproduce the per-candidate loop bit for bit on every draw.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.ea.mutation import mutate, mutate_population
from repro.imaging.metrics import sae


def _random_images(rng, side):
    image = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
    reference = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
    return image, reference


@settings(max_examples=25, deadline=None)
@given(
    backend=st.sampled_from(["reference", "numpy", "compiled"]),
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


@settings(max_examples=25, deadline=None)
@given(
    population=st.integers(1, 16),
    mutation_rate=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
)
def test_mutate_population_matches_mutate_loop(
    population, mutation_rate, seed, rows, cols
):
    spec = GenotypeSpec(rows=rows, cols=cols)
    mutation_rate = min(mutation_rate, spec.n_genes)
    parent = Genotype.random(spec, np.random.default_rng(seed))
    loop_rng = np.random.default_rng(seed + 1)
    batch_rng = np.random.default_rng(seed + 1)
    loop = [mutate(parent, mutation_rate, loop_rng) for _ in range(population)]
    batch = mutate_population(parent, mutation_rate, batch_rng, population)
    assert len(loop) == len(batch)
    for a, b in zip(loop, batch):
        assert a.genotype == b.genotype
        assert a.mutated_indices == b.mutated_indices
        assert a.changed_pe_positions == b.changed_pe_positions
    assert loop_rng.integers(0, 1 << 30) == batch_rng.integers(0, 1 << 30)


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
