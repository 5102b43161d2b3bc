"""Batched evaluation: bit-exact parity with per-candidate evaluation."""

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.ea.mutation import mutate


@pytest.fixture
def planes(small_image):
    return extract_windows(small_image)


def random_batch(spec, rng, n=9, mutation_rate=3):
    parent = Genotype.random(spec, rng)
    return [parent] + [mutate(parent, mutation_rate, rng).genotype for _ in range(n - 1)]


class TestProcessPlanesBatchParity:
    def test_matches_sequential_for_mutated_offspring(self, array, spec, planes, rng):
        batch = random_batch(spec, rng)
        batched = array.process_planes_batch(planes, batch)
        for genotype, output in zip(batch, batched):
            assert np.array_equal(output, array.process_planes(planes, genotype))

    def test_matches_sequential_for_unrelated_candidates(self, array, spec, planes, rng):
        batch = [Genotype.random(spec, rng) for _ in range(7)]
        batched = array.process_planes_batch(planes, batch)
        for genotype, output in zip(batch, batched):
            assert np.array_equal(output, array.process_planes(planes, genotype))

    def test_single_candidate_batch(self, array, spec, planes, rng):
        genotype = Genotype.random(spec, rng)
        batched = array.process_planes_batch(planes, [genotype])
        assert np.array_equal(batched[0], array.process_planes(planes, genotype))

    def test_identity_batch(self, array, spec, small_image):
        batch = [Genotype.identity(spec)] * 4
        batched = array.process_batch(small_image, batch)
        for output in batched:
            assert np.array_equal(output, small_image)

    def test_faulty_array_consumes_rng_in_candidate_order(self, spec, planes, rng):
        """With faults, batched evaluation must draw the same random planes
        in the same order as sequential evaluation would."""
        batch = random_batch(spec, rng, n=6)

        sequential_array = SystolicArray()
        sequential_array.inject_fault((1, 1), seed=77)
        sequential_array.inject_fault((2, 3), seed=88)
        sequential = [sequential_array.process_planes(planes, g) for g in batch]

        batched_array = SystolicArray()
        batched_array.inject_fault((1, 1), seed=77)
        batched_array.inject_fault((2, 3), seed=88)
        batched = batched_array.process_planes_batch(planes, batch)

        for expected, output in zip(sequential, batched):
            assert np.array_equal(output, expected)

    def test_rejects_empty_batch(self, array, planes):
        with pytest.raises(ValueError, match="at least one"):
            array.process_planes_batch(planes, [])

    def test_rejects_geometry_mismatch(self, array, planes, rng):
        wrong = Genotype.random(GenotypeSpec(rows=2, cols=2), rng)
        with pytest.raises(ValueError, match="does not match"):
            array.process_planes_batch(planes, [wrong])

    def test_rejects_bad_planes(self, array, spec, rng):
        genotype = Genotype.random(spec, rng)
        with pytest.raises(ValueError):
            array.process_planes_batch(np.zeros((4, 8, 8), dtype=np.uint8), [genotype])
        with pytest.raises(TypeError):
            array.process_planes_batch(np.zeros((9, 8, 8), dtype=np.int32), [genotype])


class TestSyncFaultsRename:
    def test_public_name_exists(self):
        from repro.core.platform import EvolvableHardwarePlatform

        platform = EvolvableHardwarePlatform(n_arrays=1, seed=0)
        platform.acb(0).sync_faults()  # public API, no warning

