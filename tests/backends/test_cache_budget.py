"""The numpy backend's cache-budget edge cases.

Regression suite for the over-budget plane-store leak: a single store
whose memoised planes already exceed ``max_cache_bytes`` used to stay
pinned in the backend's LRU until the *same* planes were evaluated again
— which, for a retired plane set (e.g. a cascaded stage input that never
recurs), was never.  Over-budget stores are now evicted at the end of
the call that grew them.
"""

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends.numpy_engine import NumpyBackend
from repro.backends.reference import ReferenceBackend


@pytest.fixture
def workload():
    rng = np.random.default_rng(3)
    image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    genotype = Genotype.random(rng=rng)
    return extract_windows(image), genotype


class TestTinyBudget:
    def test_over_budget_store_is_evicted_after_the_call(self, workload):
        planes, genotype = workload
        backend = NumpyBackend(max_cache_bytes=1)
        array = SystolicArray(backend=backend)
        array.process_planes(planes, genotype)
        # The store grew past the one-byte budget during the call and must
        # not stay pinned afterwards.
        assert id(planes) not in backend._stores

    def test_population_path_also_releases(self, workload):
        planes, genotype = workload
        backend = NumpyBackend(max_cache_bytes=1)
        array = SystolicArray(backend=backend)
        genotypes = [genotype, Genotype.random(rng=np.random.default_rng(9))]
        reference = np.zeros(planes.shape[1:], dtype=np.uint8)
        array.evaluate_population(planes, genotypes, reference)
        assert id(planes) not in backend._stores

    def test_within_budget_store_is_kept(self, workload):
        planes, genotype = workload
        backend = NumpyBackend()  # default budget: far larger than one image
        array = SystolicArray(backend=backend)
        array.process_planes(planes, genotype)
        store = backend._stores.get(id(planes))
        assert store is not None
        assert store.nbytes <= backend.max_cache_bytes

    def test_tiny_budget_results_stay_bit_exact(self, workload):
        planes, genotype = workload
        tiny = SystolicArray(backend=NumpyBackend(max_cache_bytes=1))
        reference = SystolicArray(backend=ReferenceBackend())
        for _ in range(3):  # repeated calls rebuild the store every time
            assert np.array_equal(
                tiny.process_planes(planes, genotype),
                reference.process_planes(planes, genotype),
            )
