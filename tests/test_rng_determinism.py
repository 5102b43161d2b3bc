"""The fault-injection RNG determinism contract.

Every random draw on a fault path must come from a seeded stream whose
identity is recoverable from the experiment spec: an explicit seed, or a
documented derivation from one.  This suite enforces the contract two
ways — a source scan proving no fault path can reach an unseeded
``np.random.default_rng()`` fallback, and behavioural tests exercising
each seeded call site (``SystolicArray.inject_fault``, whose seed is
required, ``FpgaFabric.corrupt_region``, ``FaultInjector``,
``ExternalMemory.corrupt``).
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.array.systolic_array import SystolicArray
from repro.core.platform import EvolvableHardwarePlatform
from repro.fpga.fabric import FpgaFabric, RegionAddress
from repro.fpga.faults import FaultInjector
from repro.soc.memory import ExternalMemory, MemoryRegion

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_no_unseeded_default_rng_anywhere_in_src():
    """No source file may construct an argument-less (OS-entropy) generator.

    ``default_rng(rng)``/``default_rng(seed)`` pass-throughs are fine —
    they are seeded by the caller; the banned pattern is the empty-call
    fallback that made fault behaviour irreproducible
    (``processing_element.py``, ``fabric.py`` and friends before the fix).

    Enforced by the ``RNG001`` contract rule (:mod:`repro.lint`), which
    replaced the original regex scan: the AST walk is alias-aware, so
    ``from numpy.random import default_rng as rng_fn; rng_fn()`` — which
    the regex missed — is the same violation.  No baseline: this rule
    admits zero acknowledged violations.
    """
    from repro.lint import run_lint

    report = run_lint([str(SRC_ROOT)], rules=["RNG001"], use_baseline=False)
    assert report.errors == []
    assert [f.render() for f in report.findings] == []
    assert [f.render() for f in report.suppressed] == []


def test_fault_models_keep_no_seedless_fallback():
    """Every PE garbage stream starts from an explicit seed: the array and
    fabric fault models carry no deprecated seedless path, tag-derived
    stream or bare single-PE model."""
    banned = ("DeprecationWarning", "_FAULT_STREAM_TAG", "processing_element")
    hits = [
        f"{path.relative_to(SRC_ROOT)}: {word}"
        for package in ("array", "fpga")
        for path in sorted((SRC_ROOT / package).rglob("*.py"))
        for word in banned
        if word in path.read_text()
    ]
    assert hits == []


class TestFpgaFabric:
    def test_implicit_seu_bit_choice_is_replayable(self):
        address = RegionAddress(0, 1, 2)

        def flipped_bits(seed):
            fabric = FpgaFabric(n_arrays=1, seed=seed)
            return [fabric.corrupt_region(address) for _ in range(4)]

        assert flipped_bits(7) == flipped_bits(7)
        assert flipped_bits(7) != flipped_bits(8)

    def test_default_seed_is_documented_constant(self):
        # Seedless fabrics share the documented default stream (seed 0).
        address = RegionAddress(0, 0, 0)
        a = FpgaFabric(n_arrays=1).corrupt_region(address)
        b = FpgaFabric(n_arrays=1).corrupt_region(address)
        assert a == b

    def test_seedless_fabric_is_seed_zero_and_does_not_warn(self):
        address = RegionAddress(0, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fabric = FpgaFabric(n_arrays=1)
            drawn = [fabric.corrupt_region(address) for _ in range(4)]
        assert fabric.seed == 0
        seeded = FpgaFabric(n_arrays=1, seed=0)
        assert drawn == [seeded.corrupt_region(address) for _ in range(4)]

    def test_platform_threads_its_seed_into_the_fabric(self):
        platform = EvolvableHardwarePlatform(n_arrays=1, seed=123)
        assert platform.fabric.seed == 123

    def test_explicit_rng_still_wins(self):
        address = RegionAddress(0, 0, 0)
        a = FpgaFabric(n_arrays=1, seed=1).corrupt_region(
            address, rng=np.random.default_rng(99)
        )
        b = FpgaFabric(n_arrays=1, seed=2).corrupt_region(
            address, rng=np.random.default_rng(99)
        )
        assert a == b


class TestSystolicArrayStreams:
    def test_reset_fault_streams_reproduces_first_run(self):
        array = SystolicArray()
        array.inject_fault((0, 0), seed=5)
        array.inject_fault((3, 2), seed=9)
        first = {
            position: array.fault_rng(position).integers(0, 256, size=16, dtype=np.uint8)
            for position in array.faulty_positions
        }
        array.reset_fault_streams()
        for position, expected in first.items():
            replay = array.fault_rng(position).integers(0, 256, size=16, dtype=np.uint8)
            assert np.array_equal(replay, expected)

    def test_clear_paths_drop_stream_seeds(self):
        array = SystolicArray()
        array.inject_fault((1, 1), seed=4)
        array.clear_fault((1, 1))
        with pytest.raises(KeyError):
            array.fault_seed((1, 1))
        array.inject_fault((1, 1), seed=4)
        array.clear_all_faults()
        with pytest.raises(KeyError):
            array.fault_seed((1, 1))

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            SystolicArray().inject_fault((1, 1))

    def test_reinjection_after_clear_rewinds_the_same_generator(self):
        # Clearing keeps each position's start record, so the re-injection
        # every ACB fault sync makes rewinds the generator in place instead
        # of seeding a new one.
        array = SystolicArray()
        array.inject_fault((2, 1), seed=6)
        rng = array.fault_rng((2, 1))
        start = rng.integers(0, 256, size=16, dtype=np.uint8)
        array.clear_all_faults()
        array.inject_fault((2, 1), seed=6)
        assert array.fault_rng((2, 1)) is rng
        assert np.array_equal(rng.integers(0, 256, size=16, dtype=np.uint8), start)

    def test_reinjection_restarts_the_stream(self):
        array = SystolicArray()
        array.inject_fault((2, 2), seed=7)
        first = array.fault_rng((2, 2)).integers(0, 256, size=32, dtype=np.uint8)
        array.inject_fault((2, 2), seed=7)  # same seed: stream rewinds
        again = array.fault_rng((2, 2)).integers(0, 256, size=32, dtype=np.uint8)
        assert np.array_equal(first, again)

    def test_restarted_streams_match_fresh_generators(self):
        # Re-injection after clear_all_faults (what every ACB fault sync
        # does) rewinds a reused generator; it must still match a freshly
        # seeded one, and one seed at two positions stays two streams.
        array = SystolicArray()
        for _ in range(3):
            array.clear_all_faults()
            array.inject_fault((0, 1), seed=11)
            array.inject_fault((2, 3), seed=11)
            draws = [array.fault_rng(p).integers(0, 256, size=8, dtype=np.uint8)
                     for p in ((0, 1), (2, 3))]
            expected = np.random.default_rng(11).integers(0, 256, size=8, dtype=np.uint8)
            assert np.array_equal(draws[0], expected)
            assert np.array_equal(draws[1], expected)

    def test_fault_scenario_replays_on_reused_array(self):
        """The stale-stream bug: re-running a fault scenario on a reused
        array must reproduce the first run once the streams are rewound."""
        from repro.array.genotype import Genotype

        image = np.arange(144, dtype=np.uint8).reshape(12, 12)
        genotype = Genotype.random(rng=np.random.default_rng(3))
        array = SystolicArray()
        array.inject_fault((1, 1), seed=42)
        first = [array.process(image, genotype) for _ in range(3)]
        array.reset_fault_streams()
        second = [array.process(image, genotype) for _ in range(3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestFaultInjectorAndMemory:
    def test_injector_default_targeting_is_deterministic(self):
        def targets(seed):
            fabric = FpgaFabric(n_arrays=2, seed=seed)
            injector = FaultInjector(fabric)
            return [injector.inject_lpd().address for _ in range(5)]

        assert targets(3) == targets(3)
        assert targets(3) != targets(4)

    def test_memory_corrupt_without_rng_is_deterministic(self):
        def corrupted(key):
            memory = ExternalMemory()
            memory.store(MemoryRegion.FLASH, key, np.zeros((6, 6), dtype=np.uint8))
            memory.corrupt(MemoryRegion.FLASH, key)
            return memory.load(MemoryRegion.FLASH, key)

        assert np.array_equal(corrupted("ref"), corrupted("ref"))
        assert not np.array_equal(corrupted("ref"), corrupted("other"))

    def test_seu_campaign_replays_end_to_end(self):
        """A platform-level SEU campaign driven only by the platform seed
        must flip the same bits in the same regions on every run."""

        def campaign():
            platform = EvolvableHardwarePlatform(n_arrays=2, seed=77)
            records = [platform.fault_injector.inject_seu() for _ in range(6)]
            return [(r.address, r.detail) for r in records]

        assert campaign() == campaign()
