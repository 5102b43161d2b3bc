"""Unit contract of the staged fitness pipeline (`repro.ea.pipeline`).

Each stage in isolation: the fault gate, the in-process cache tier, the
persistent cross-run tier (including its cross-backend roundtrip, prune
and verify), and the scope/invalidation semantics everything hangs off.
"""

import json

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends.fitness_cache import FitnessCache, PersistentFitnessCache
from repro.ea.pipeline import FitnessPipeline, resolve_persistent_cache
from repro.imaging.metrics import sae

BACKENDS = ("reference", "numpy")


@pytest.fixture
def workload():
    rng = np.random.default_rng(23)
    image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    reference = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(8)]
    return extract_windows(image), reference, genotypes


def exact_fitnesses(planes, genotypes, reference, backend="reference"):
    array = SystolicArray(backend=backend)
    return [
        sae(array.process_planes(planes, genotype), reference)
        for genotype in genotypes
    ]


# --------------------------------------------------------------------------- #
# In-process cache tier
# --------------------------------------------------------------------------- #
class TestInProcessTier:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_values_are_exact_and_hits_served(self, backend, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend=backend))
        first = pipeline.evaluate_population(planes, genotypes, reference)
        assert first == exact_fitnesses(planes, genotypes, reference)
        again = pipeline.evaluate_population(planes, genotypes, reference)
        assert again == first
        stats = pipeline.stats()
        assert stats["misses"] == len(genotypes)
        assert stats["hits"] == len(genotypes)
        assert stats["bypasses"] == 0
        assert stats["full_evaluations"] == len(genotypes)

    def test_duplicates_in_one_batch_count_as_hits(self, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend="reference"))
        batch = [genotypes[0], genotypes[1], genotypes[0], genotypes[0]]
        values = pipeline.evaluate_population(planes, batch, reference)
        assert values == exact_fitnesses(planes, batch, reference)
        stats = pipeline.stats()
        # First occurrences miss; the two repeats are served as hits,
        # exactly as a sequential pass over the batch would see them.
        assert stats["misses"] == 2
        assert stats["hits"] == 2
        assert stats["full_evaluations"] == 2

    def test_single_evaluate_uses_the_cache(self, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend="numpy"))
        value = pipeline.evaluate(planes, genotypes[0], reference)
        assert value == pipeline.evaluate(planes, genotypes[0], reference)
        assert pipeline.stats()["hits"] == 1
        assert pipeline.stats()["full_evaluations"] == 1

    def test_bounded_tier_evicts_oldest_insertion_first(self):
        """Eviction order is pinned: a re-put updates a value in place
        without refreshing its age, and a new key on a full cache evicts
        the oldest insertion — so hit sequences are reproducible."""
        budget = 8
        keys = [10, 12, 0, 12, 7, 8, 10, 4, 15, 0, 4, 6, 9, 6, 2, 0, 0, 0, 2, 15, 3, 10, 12, 3]
        cache = FitnessCache(budget)
        for index, key in enumerate(keys):
            cache.put(key, float(index))
        survivors = {2: 18.0, 3: 23.0, 4: 10.0, 6: 13.0, 9: 12.0, 10: 21.0, 12: 22.0, 15: 19.0}
        assert len(cache) == budget
        assert {key: cache.get(key) for key in range(2 * budget)} == {
            key: survivors.get(key) for key in range(2 * budget)
        }
        assert cache.stats.as_dict() == {"hits": 8, "misses": 8, "bypasses": 0}
        # The oldest survivor is 4 (inserted by put 7, updated by put 10).
        cache.put(1, 24.0)
        assert cache.get(4) is None
        assert [cache.get(key) for key in (1, 15, 3)] == [24.0, 19.0, 23.0]


# --------------------------------------------------------------------------- #
# Fault gate
# --------------------------------------------------------------------------- #
class TestFaultGate:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_faulty_arrays_bypass_and_stay_stream_aligned(self, backend, workload):
        planes, reference, genotypes = workload

        def build():
            array = SystolicArray(backend=backend)
            array.inject_fault((1, 1), seed=5)
            return array

        pipeline = FitnessPipeline(build())
        twin = build()
        for _ in range(2):  # repeated rounds must consume identical draws
            values = pipeline.evaluate_population(planes, genotypes, reference)
            expected = [
                sae(twin.process_planes(planes, genotype), reference)
                for genotype in genotypes
            ]
            assert values == expected
        stats = pipeline.stats()
        assert stats["bypasses"] == 2 * len(genotypes)
        assert stats["hits"] == 0 and stats["misses"] == 0


# --------------------------------------------------------------------------- #
# Persistent cross-run tier
# --------------------------------------------------------------------------- #
class TestPersistentTier:
    def test_cross_backend_roundtrip(self, workload, tmp_path):
        planes, reference, genotypes = workload
        root = tmp_path / "fcache"
        writer = FitnessPipeline(
            SystolicArray(backend="numpy"), persistent=str(root)
        )
        published = writer.evaluate_population(planes, genotypes, reference)
        assert writer.persistent_misses == len(genotypes)

        reader = FitnessPipeline(
            SystolicArray(backend="reference"), persistent=str(root)
        )
        served = reader.evaluate_population(planes, genotypes, reference)
        assert served == published
        assert reader.persistent_hits == len(genotypes)
        assert reader.full_evaluations == 0  # every candidate came from disk

    def test_keys_do_not_alias_across_references(self, workload, tmp_path):
        planes, reference, genotypes = workload
        cache = PersistentFitnessCache(tmp_path / "fcache")
        pipeline = FitnessPipeline(SystolicArray(backend="reference"),
                                   persistent=cache)
        pipeline.evaluate_population(planes, genotypes[:2], reference)
        other = reference.copy()
        other[0, 0] ^= 0xFF
        values = pipeline.evaluate_population(planes, genotypes[:2], other)
        assert values == exact_fitnesses(planes, genotypes[:2], other)
        assert pipeline.persistent_hits == 0  # new reference, new keys

    def test_prune_and_verify_roundtrip(self, workload, tmp_path):
        planes, reference, genotypes = workload
        cache = PersistentFitnessCache(tmp_path / "fcache")
        pipeline = FitnessPipeline(SystolicArray(backend="reference"),
                                   persistent=cache)
        pipeline.evaluate_population(planes, genotypes, reference)
        assert cache.verify() == []
        before = cache.summary()["entries"]
        with open(cache.index_path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        assert any("unparseable" in problem for problem in cache.verify())
        pruned = cache.prune()
        assert pruned["dropped"] == 1 and pruned["kept"] == before
        assert cache.verify() == []

    def test_publish_after_a_torn_line_reaches_fresh_readers(self, tmp_path):
        cache = PersistentFitnessCache(tmp_path / "fcache")
        cache.publish({"0" * 64: 10.0})
        with open(cache.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"fitness": 30.0, "key": "' + "2" * 32)  # killed mid-line
        cache.publish({"1" * 64: 20.0})
        reader = PersistentFitnessCache(tmp_path / "fcache")
        assert reader.lookup(["0" * 64, "1" * 64]) == {"0" * 64: 10.0, "1" * 64: 20.0}
        assert reader.verify() == ["line 2: unparseable index entry"]

    def test_lookup_serves_the_first_duplicate_like_prune_and_verify(self, tmp_path):
        root = tmp_path / "fcache"
        root.mkdir()
        key = "a" * 64
        lines = [{"fitness": 10.0, "key": key}, {"fitness": 99.0, "key": key}]
        (root / PersistentFitnessCache.INDEX_FILE).write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        cache = PersistentFitnessCache(root)
        assert cache.verify() == [
            f"line 2: key {key[:12]}... republished with 99.0 != first-written 10.0"
        ]
        assert PersistentFitnessCache(root).lookup([key]) == {key: 10.0}
        cache.prune()
        assert cache.verify() == []
        assert PersistentFitnessCache(root).lookup([key]) == {key: 10.0}

    def test_resolve_persistent_cache_coercion(self, tmp_path):
        assert resolve_persistent_cache(None) is None
        from_path = resolve_persistent_cache(tmp_path / "fcache")
        assert isinstance(from_path, PersistentFitnessCache)
        shared = PersistentFitnessCache(tmp_path / "fcache")
        assert resolve_persistent_cache(shared) is shared


# --------------------------------------------------------------------------- #
# Scope and invalidation semantics
# --------------------------------------------------------------------------- #
class TestScope:
    def test_reference_change_invalidates_by_value(self, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend="reference"))
        pipeline.evaluate_population(planes, genotypes[:3], reference)
        # Mutating the same reference buffer in place (the imitation
        # evaluator's refresh_master pattern) must not serve stale entries.
        mutated = reference.copy()
        mutated[2, 2] ^= 0x55
        values = pipeline.evaluate_population(planes, genotypes[:3], mutated)
        assert values == exact_fitnesses(planes, genotypes[:3], mutated)

    def test_invalidate_resets_entries(self, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend="reference"))
        pipeline.evaluate_population(planes, genotypes, reference)
        assert len(pipeline.cache) == len(genotypes)
        pipeline.invalidate()
        assert len(pipeline.cache) == 0
        values = pipeline.evaluate_population(planes, genotypes, reference)
        assert values == exact_fitnesses(planes, genotypes, reference)
