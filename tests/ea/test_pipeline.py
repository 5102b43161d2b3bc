"""Unit contract of the staged fitness pipeline (`repro.ea.pipeline`).

Each stage in isolation: the fault gate, the in-process cache tier, the
persistent cross-run tier (including its cross-backend roundtrip, prune
and verify), racing early rejection (exactness of bounds and survivor
totals), and the scope/invalidation semantics everything hangs off.
"""

import json
import math

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends.fitness_cache import PersistentFitnessCache
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

        pipeline = FitnessPipeline(build(), racing=True)
        twin = build()
        for _ in range(2):  # repeated rounds must consume identical draws
            values = pipeline.evaluate_population(
                planes, genotypes, reference, threshold=0.0
            )
            expected = [
                sae(twin.process_planes(planes, genotype), reference)
                for genotype in genotypes
            ]
            assert values == expected
        stats = pipeline.stats()
        assert stats["bypasses"] == 2 * len(genotypes)
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["racing_rejected"] == 0  # racing never engages on faults


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
# Racing early rejection
# --------------------------------------------------------------------------- #
class TestRacing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounds_are_exact_and_selection_preserved(self, backend, workload):
        planes, _, _ = workload
        # Reference == the input image makes identity the perfect parent
        # (SAE 0), so random offspring are provably hopeless after the
        # first partial block.
        rng = np.random.default_rng(23)
        reference = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        planes = extract_windows(reference)
        genotypes = [Genotype.identity()] + [
            Genotype.random(rng=np.random.default_rng(s)) for s in range(10)
        ]
        full = exact_fitnesses(planes, genotypes, reference)
        threshold = min(full)
        pipeline = FitnessPipeline(SystolicArray(backend=backend), racing=True)
        values = pipeline.evaluate_population(
            planes, genotypes, reference, threshold=threshold
        )
        assert pipeline.racing_rejected > 0
        for raced, exact in zip(values, full):
            if raced == exact:
                continue
            # A rejected candidate reports its partial-SAE lower bound:
            # provably above the threshold, never above the exact value.
            assert threshold < raced <= exact
        # Candidates at or below the threshold keep their exact values, so
        # selection (including accept_equal ties) is unchanged.
        for raced, exact in zip(values, full):
            if exact <= threshold:
                assert raced == exact
        assert min(values) == min(full)
        assert values.index(min(values)) == full.index(min(full))

    def test_survivor_totals_equal_full_evaluation(self, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend="numpy"), racing=True)
        # An infinite... rather: a huge threshold lets everything survive all
        # blocks; the block-sum totals must equal the full-image SAE exactly.
        values = pipeline.evaluate_population(
            planes, genotypes, reference, threshold=float(2**60)
        )
        assert values == exact_fitnesses(planes, genotypes, reference)
        assert pipeline.racing_rejected == 0
        assert pipeline.full_evaluations == len(genotypes)

    def test_single_evaluate_never_races(self, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend="reference"), racing=True)
        # Seed a tiny best-seen so auto-thresholding would reject if engaged.
        pipeline.evaluate(planes, Genotype.identity(), reference)
        for genotype in genotypes[:3]:
            assert pipeline.evaluate(planes, genotype, reference) == \
                exact_fitnesses(planes, [genotype], reference)[0]
        assert pipeline.racing_rejected == 0

    def test_auto_threshold_tracks_best_seen(self, workload):
        # Reference == input image: identity scores 0, making the best-seen
        # threshold maximally selective for the second batch.
        reference = np.random.default_rng(23).integers(
            0, 256, size=(16, 16), dtype=np.uint8
        )
        planes = extract_windows(reference)
        genotypes = [Genotype.identity()] + [
            Genotype.random(rng=np.random.default_rng(s)) for s in range(6)
        ]
        pipeline = FitnessPipeline(SystolicArray(backend="reference"), racing=True)
        # First batch: no threshold given and nothing seen yet -> no racing.
        pipeline.evaluate_population(planes, genotypes[:1], reference)
        assert pipeline.partial_evaluations == 0
        # Second batch: best-seen (the identity's fitness) becomes the bar.
        pipeline.evaluate_population(planes, genotypes[1:], reference)
        assert pipeline.racing_rejected > 0

    def test_small_images_disable_racing(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        reference = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        planes = extract_windows(image)
        genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(4)]
        pipeline = FitnessPipeline(SystolicArray(backend="reference"), racing=True)
        values = pipeline.evaluate_population(
            planes, genotypes, reference, threshold=0.0
        )
        assert values == exact_fitnesses(planes, genotypes, reference)
        assert pipeline.partial_evaluations == 0


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

    def test_invalidate_resets_best_seen_and_entries(self, workload):
        planes, reference, genotypes = workload
        pipeline = FitnessPipeline(SystolicArray(backend="reference"), racing=True)
        pipeline.evaluate_population(planes, genotypes, reference)
        assert math.isfinite(pipeline._best_seen)
        pipeline.invalidate()
        assert pipeline._best_seen == math.inf
        assert len(pipeline.cache) == 0
        values = pipeline.evaluate_population(planes, genotypes, reference)
        assert values == exact_fitnesses(planes, genotypes, reference)
