"""Fault detection through the fused population path on held window planes.

Calibration, calibration checks and the self-healing detectors score each
array with :meth:`ArrayControlBlock.detection_fitness` on the platform's
held calibration planes.  Every value must equal the image path,
``sae(acb.shadow_process(image), reference)``, on every backend and for
healthy, SEU-hit and LPD-hit arrays alike; and on a healthy ``numpy``
platform the monitoring loop must neither re-extract windows nor churn the
engine's plane-store cache.
"""

import numpy as np
import pytest

import repro.array.systolic_array as systolic_array_module
import repro.core.platform as platform_module
from repro.array.genotype import Genotype
from repro.array.window import extract_windows
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.self_healing import CascadedSelfHealing, FaultClass, TmrSelfHealing
from repro.imaging.images import make_training_pair
from repro.imaging.metrics import sae

BACKENDS = ["reference", "numpy"]


@pytest.fixture
def task():
    return make_training_pair("salt_pepper_denoise", size=20, seed=5, noise_level=0.1)


def _platform(backend):
    platform = EvolvableHardwarePlatform(n_arrays=3, seed=11, backend=backend)
    genotype = Genotype.identity(platform.spec)
    genotype.function_genes[0, 1] = 13  # MIN
    genotype.function_genes[0, 2] = 12  # MAX
    platform.configure_all(genotype)
    return platform


def _image_path(platform, image, reference):
    return {acb.index: sae(acb.shadow_process(image), reference) for acb in platform.acbs}


def _fused_path(platform, image, reference):
    planes = platform.calibration_planes(image)
    return {acb.index: acb.detection_fitness(planes, reference) for acb in platform.acbs}


def _assert_parity(platform, image, reference):
    fused = _fused_path(platform, image, reference)
    expected = _image_path(platform, image, reference)
    assert fused == expected
    assert all(type(value) is float for value in fused.values())
    assert platform.detection_fitness(image, reference) == expected
    return fused


@pytest.mark.parametrize("backend", BACKENDS)
class TestDetectionParity:
    def test_healthy_arrays(self, backend, task):
        platform = _platform(backend)
        _assert_parity(platform, task.training, task.reference)
        assert platform.calibrate(task.training, task.reference) == _image_path(
            platform, task.training, task.reference
        )

    def test_seu_arrays(self, backend, task):
        platform = _platform(backend)
        platform.inject_transient_fault(1, 0, 1)
        platform.inject_transient_fault(2, 0, 2)
        fused = _assert_parity(platform, task.training, task.reference)
        healthy = _image_path(_platform(backend), task.training, task.reference)
        assert fused[1] != healthy[1] and fused[2] != healthy[2]

    def test_lpd_arrays(self, backend, task):
        platform = _platform(backend)
        platform.inject_permanent_fault(0, 0, 2)
        platform.inject_permanent_fault(0, 1, 1)
        platform.inject_permanent_fault(2, 0, 3)
        _assert_parity(platform, task.training, task.reference)

    def test_repeated_calls_restart_the_fault_streams(self, backend, task):
        platform = _platform(backend)
        platform.inject_permanent_fault(1, 0, 1)
        first = _fused_path(platform, task.training, task.reference)
        for _ in range(3):
            assert _fused_path(platform, task.training, task.reference) == first
        assert _image_path(platform, task.training, task.reference) == first

    def test_a_repeated_detection_leaves_the_state_of_one(self, backend, task):
        """The second detection replays the first block of each rewound
        stream; fitness and every stream's end state are one detection's."""

        def faulty():
            platform = _platform(backend)
            platform.inject_permanent_fault(0, 0, 2)
            platform.inject_permanent_fault(0, 1, 1)
            return platform, platform.acbs[0]

        platform, acb = faulty()
        planes = platform.calibration_planes(task.training)
        first = acb.detection_fitness(planes, task.reference)
        second = acb.detection_fitness(planes, task.reference)
        fresh, fresh_acb = faulty()
        once = fresh_acb.detection_fitness(fresh.calibration_planes(task.training), task.reference)

        assert first == second == once
        assert first != _platform(backend).acbs[0].detection_fitness(planes, task.reference)
        assert acb.array.faulty_positions == ((0, 2), (1, 1))
        for position in acb.array.faulty_positions:
            assert (
                acb.array.fault_rng(position).bit_generator.state
                == fresh_acb.array.fault_rng(position).bit_generator.state
            )

    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_non_uint8_reference(self, backend, task, dtype):
        reference = task.reference.astype(dtype) * 2 + dtype(0.75 if dtype is np.float64 else 3)
        platform = _platform(backend)
        platform.inject_permanent_fault(2, 0, 1)
        _assert_parity(platform, task.training, reference)

    def test_image_mutated_after_initialize_is_re_extracted(self, backend, task):
        platform = _platform(backend)
        image = task.training.copy()
        healer = CascadedSelfHealing(platform, image, task.reference)
        baseline = healer.initialize()
        held = platform.calibration_planes(image)
        image[:5] = 255 - image[:5]
        planes = platform.calibration_planes(image)
        assert planes is not held
        assert np.array_equal(planes, extract_windows(image))
        mutated = _image_path(platform, image, task.reference)
        assert mutated != baseline
        assert {index: healer._array_fitness(index) for index in range(3)} == mutated
        assert set(platform.check_calibration(image, task.reference).values()) == {True}

    def test_tmr_detector_matches_the_image_path(self, backend, task):
        platform = _platform(backend)
        platform.inject_permanent_fault(2, 0, 1)
        healer = TmrSelfHealing(platform, task.training, task.reference)
        assert healer.array_fitnesses() == _image_path(platform, task.training, task.reference)


class TestHeldPlanes:
    def test_byte_identical_images_share_one_read_only_planes_object(self, task):
        platform = _platform("numpy")
        planes = platform.calibration_planes(task.training)
        assert platform.calibration_planes(task.training.copy()) is planes
        assert np.array_equal(planes, extract_windows(task.training))
        assert not planes.flags.writeable

    def test_a_different_image_replaces_the_held_planes(self, task):
        platform = _platform("numpy")
        first = platform.calibration_planes(task.training)
        second = platform.calibration_planes(task.reference)
        assert second is not first
        assert np.array_equal(second, extract_windows(task.reference))

    def test_unconfigured_array_is_rejected(self, task):
        platform = EvolvableHardwarePlatform(n_arrays=1, seed=0)
        with pytest.raises(RuntimeError, match="no configured circuit"):
            platform.calibrate(task.training, task.reference)


class TestCheckAndHealReuse:
    """``check_and_heal`` reports the values it already computed."""

    def _healer(self, platform, task):
        return CascadedSelfHealing(
            platform, task.training, task.reference, imitation_generations=6,
            imitation_target_fitness=None, n_offspring=4, mutation_rate=2, rng=0,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_path(self, backend, task):
        platform = _platform(backend)
        healer = self._healer(platform, task)
        baseline = healer.initialize()
        platform.inject_transient_fault(1, 0, 1)
        report = healer.check_and_heal()
        assert report.fault_class == FaultClass.TRANSIENT
        assert report.fitness_after == baseline
        assert report.fitness_after == _image_path(platform, task.training, task.reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_permanent_path(self, backend, task):
        platform = _platform(backend)
        healer = self._healer(platform, task)
        healer.initialize()
        platform.inject_permanent_fault(1, 0, 1)
        report = healer.check_and_heal()
        assert report.fault_class == FaultClass.PERMANENT
        assert report.fitness_after == platform.calibration_fitness
        assert report.fitness_after == _image_path(platform, task.training, task.reference)


def test_monitoring_reuses_the_held_planes_and_one_plane_store(task, monkeypatch):
    """Healthy ``numpy`` monitoring: no window re-extraction, no LRU churn."""
    platform = _platform("numpy")
    healer = CascadedSelfHealing(platform, task.training, task.reference)
    healer.initialize()
    planes = platform.calibration_planes(task.training)
    stores = []
    for acb in platform.acbs:
        held = acb.array.backend._stores
        assert len(held) == 1
        stores.append(next(iter(held.values())))
        assert stores[-1].planes is planes

    calls = []

    def counting(image):
        calls.append(image)
        return extract_windows(image)

    monkeypatch.setattr(platform_module, "extract_windows", counting)
    monkeypatch.setattr(systolic_array_module, "extract_windows", counting)
    for _ in range(6):
        report = healer.check_and_heal()
        assert report.fault_class == FaultClass.NONE
    platform.check_calibration(task.training, task.reference)

    assert calls == []
    for acb, store in zip(platform.acbs, stores):
        held = acb.array.backend._stores
        assert list(held.values()) == [store]
