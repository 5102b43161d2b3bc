"""Population evaluation: bit-exact parity with per-candidate evaluation.

``SystolicArray.evaluate_population`` returns fitness, not planes, so the
plane-level parity cases score the population against each candidate's
own per-candidate output: ``sae`` is 0 only on an exact pixel match.
"""

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.ea.mutation import mutate
from repro.imaging.metrics import sae


@pytest.fixture
def planes(small_image):
    return extract_windows(small_image)


def random_batch(spec, rng, n=9, mutation_rate=3):
    parent = Genotype.random(spec, rng)
    return [parent] + [mutate(parent, mutation_rate, rng).genotype for _ in range(n - 1)]


def assert_matches_per_candidate(array, planes, batch):
    """Population fitness and outputs equal the per-candidate path (healthy array)."""
    outputs = [array.process_planes(planes, genotype) for genotype in batch]
    target = planes[0]
    fits = array.evaluate_population(planes, batch, target)
    assert fits.tolist() == [sae(output, target) for output in outputs]
    for b, output in enumerate(outputs):
        assert array.evaluate_population(planes, batch, output)[b] == 0.0


class TestProcessPlanesBatchParity:
    def test_matches_sequential_for_mutated_offspring(self, array, spec, planes, rng):
        assert_matches_per_candidate(array, planes, random_batch(spec, rng))

    def test_matches_sequential_for_unrelated_candidates(self, array, spec, planes, rng):
        assert_matches_per_candidate(array, planes, [Genotype.random(spec, rng) for _ in range(7)])

    def test_single_candidate_batch(self, array, spec, planes, rng):
        assert_matches_per_candidate(array, planes, [Genotype.random(spec, rng)])

    def test_identity_batch(self, array, spec, small_image):
        batch = [Genotype.identity(spec)] * 4
        fits = array.evaluate_population(extract_windows(small_image), batch, small_image)
        assert fits.tolist() == [0.0] * 4

    def test_faulty_array_consumes_rng_in_candidate_order(self, spec, planes, rng):
        """With faults, population evaluation must draw the same random planes
        in the same order as sequential evaluation would."""
        batch = random_batch(spec, rng, n=6)
        target = planes[4]

        sequential_array = SystolicArray()
        sequential_array.inject_fault((1, 1), seed=77)
        sequential_array.inject_fault((2, 3), seed=88)
        sequential = [sae(sequential_array.process_planes(planes, g), target) for g in batch]

        population_array = SystolicArray()
        population_array.inject_fault((1, 1), seed=77)
        population_array.inject_fault((2, 3), seed=88)
        population = population_array.evaluate_population(planes, batch, target)

        assert population.tolist() == sequential

    def test_rejects_empty_batch(self, array, planes):
        with pytest.raises(ValueError, match="at least one"):
            array.evaluate_population(planes, [], planes[0])

    def test_rejects_geometry_mismatch(self, array, planes, rng):
        wrong = Genotype.random(GenotypeSpec(rows=2, cols=2), rng)
        with pytest.raises(ValueError, match="does not match"):
            array.evaluate_population(planes, [wrong], planes[0])

    def test_rejects_bad_planes(self, array, spec, rng):
        genotype = Genotype.random(spec, rng)
        target = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            array.evaluate_population(np.zeros((4, 8, 8), dtype=np.uint8), [genotype], target)
        with pytest.raises(TypeError):
            array.evaluate_population(np.zeros((9, 8, 8), dtype=np.int32), [genotype], target)


class TestSyncFaultsRename:
    def test_public_name_exists(self):
        from repro.core.platform import EvolvableHardwarePlatform

        platform = EvolvableHardwarePlatform(n_arrays=1, seed=0)
        platform.acb(0).sync_faults()  # public API, no warning
