"""Tests for the multi-array platform."""

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.array.window import extract_windows
from repro.backends.numpy_engine import _immutable
from repro.core.modes import ProcessingMode
from repro.core.platform import EvolvableHardwarePlatform
from repro.soc.memory import MemoryRegion


class TestConstruction:
    def test_default_three_arrays(self, platform):
        assert platform.n_arrays == 3
        assert len(platform.acbs) == 3
        assert platform.fabric.n_arrays == 3

    def test_single_array_platform(self):
        platform = EvolvableHardwarePlatform(n_arrays=1, seed=0)
        assert platform.n_arrays == 1

    def test_invalid_array_count(self):
        with pytest.raises(ValueError):
            EvolvableHardwarePlatform(n_arrays=0)

    def test_acb_index_bounds(self, platform):
        with pytest.raises(IndexError):
            platform.acb(3)

    def test_random_genotype_uses_platform_spec(self, platform):
        genotype = platform.random_genotype()
        assert genotype.spec == platform.spec

    def test_timing_model_matches_engine(self, platform):
        model = platform.timing_model()
        assert model.pe_reconfiguration_time_s == pytest.approx(
            platform.engine.pe_reconfiguration_time_s
        )

    def test_resource_report(self, platform):
        report = platform.resource_report()
        assert report.n_arrays == 3
        assert report.total_slices == 733 + 3 * 754


class TestConfiguration:
    def test_configure_all(self, platform, identity_genotype):
        writes, elapsed = platform.configure_all(identity_genotype)
        assert writes == 0  # fabric starts identity-configured
        for acb in platform.acbs:
            assert acb.genotype == identity_genotype

    def test_set_processing_mode(self, platform):
        platform.set_processing_mode(ProcessingMode.PARALLEL)
        assert platform.processing_mode == ProcessingMode.PARALLEL
        with pytest.raises(TypeError):
            platform.set_processing_mode("parallel")


class TestProcessingModes:
    def test_cascade_identity_chain(self, configured_platform, medium_image):
        out = configured_platform.process_cascade(medium_image)
        assert np.array_equal(out, medium_image)

    def test_cascade_stage_outputs(self, configured_platform, medium_image):
        outputs = configured_platform.cascade_stage_outputs(medium_image)
        assert len(outputs) == 3
        for out in outputs:
            assert np.array_equal(out, medium_image)

    def test_cascade_subset_of_stages(self, configured_platform, medium_image):
        out = configured_platform.process_cascade(medium_image, stages=[0, 2])
        assert np.array_equal(out, medium_image)

    def test_bypass_skips_stage(self, platform, medium_image, rng):
        # Stage 1 holds a circuit that changes the image; bypassing it makes
        # the cascade an identity chain again.
        identity = Genotype.identity(platform.spec)
        scrambler = Genotype.identity(platform.spec)
        scrambler.function_genes[0, 0] = 3  # one INVERT_W on the output path
        platform.configure_array(0, identity)
        platform.configure_array(1, scrambler)
        platform.configure_array(2, identity)
        without_bypass = platform.process_cascade(medium_image)
        assert not np.array_equal(without_bypass, medium_image)
        platform.set_bypass(1, True)
        with_bypass = platform.process_cascade(medium_image)
        assert np.array_equal(with_bypass, medium_image)

    def test_parallel_outputs_and_vote(self, configured_platform, medium_image):
        outputs = configured_platform.process_parallel(medium_image, vote=False)
        assert len(outputs) == 3
        voted = configured_platform.process_parallel(medium_image, vote=True)
        assert np.array_equal(voted, medium_image)

    def test_independent_mode(self, configured_platform):
        images = [np.full((16, 16), value, dtype=np.uint8) for value in (10, 20, 30)]
        outputs = configured_platform.process_independent(images)
        for image, output in zip(images, outputs):
            assert np.array_equal(image, output)

    def test_independent_mode_wrong_count(self, configured_platform, medium_image):
        with pytest.raises(ValueError):
            configured_platform.process_independent([medium_image])

    def test_process_dispatch(self, configured_platform, medium_image):
        configured_platform.set_processing_mode(ProcessingMode.CASCADED)
        assert np.array_equal(configured_platform.process(medium_image), medium_image)
        configured_platform.set_processing_mode(ProcessingMode.PARALLEL)
        assert np.array_equal(configured_platform.process(medium_image), medium_image)
        configured_platform.set_processing_mode(ProcessingMode.INDEPENDENT)
        outputs = configured_platform.process([medium_image] * 3)
        assert len(outputs) == 3


class TestImagesAndMemory:
    def test_store_load_erase(self, platform, medium_image):
        platform.store_image("reference", medium_image)
        assert np.array_equal(platform.load_image("reference"), medium_image)
        platform.erase_image("reference")
        with pytest.raises(KeyError):
            platform.load_image("reference")

    def test_store_in_ddr(self, platform, medium_image):
        platform.store_image("frame", medium_image, region=MemoryRegion.DDR)
        assert platform.memory.contains(MemoryRegion.DDR, "frame")


class TestFaultsAndCalibration:
    def test_inject_permanent_fault_affects_processing(self, configured_platform, medium_image):
        configured_platform.inject_permanent_fault(0, 0, 0)
        out = configured_platform.acb(0).shadow_process(medium_image)
        assert not np.array_equal(out, medium_image)

    def test_transient_fault_removed_by_scrub(self, configured_platform, medium_image):
        configured_platform.inject_transient_fault(1, 0, 0)
        assert configured_platform.fabric.effective_faults(1) == [(0, 0)]
        report = configured_platform.scrub_array(1)
        assert report.n_repaired == 1
        assert configured_platform.fabric.effective_faults(1) == []
        out = configured_platform.acb(1).shadow_process(medium_image)
        assert np.array_equal(out, medium_image)

    def test_permanent_fault_survives_scrub(self, configured_platform):
        configured_platform.inject_permanent_fault(2, 1, 1)
        report = configured_platform.scrub_array(2)
        assert report.still_damaged
        assert configured_platform.fabric.effective_faults(2) == [(1, 1)]

    def test_scrub_all(self, configured_platform):
        configured_platform.inject_transient_fault(0, 0, 0)
        configured_platform.inject_transient_fault(2, 3, 3)
        report = configured_platform.scrub_all()
        assert report.n_repaired == 2

    def test_calibration_detects_fault(self, configured_platform, medium_image):
        baseline = configured_platform.calibrate(medium_image, medium_image)
        assert all(value == 0.0 for value in baseline.values())
        flags = configured_platform.check_calibration(medium_image, medium_image)
        assert not any(flags.values())
        configured_platform.inject_permanent_fault(1, 0, 0)
        flags = configured_platform.check_calibration(medium_image, medium_image)
        assert flags[1]
        assert not flags[0] and not flags[2]

    def test_check_calibration_requires_baseline(self, configured_platform, medium_image):
        with pytest.raises(RuntimeError):
            configured_platform.check_calibration(medium_image, medium_image)

    def test_calibration_planes_view_an_immutable_buffer(self, platform, medium_image):
        # The numpy engine's plane store skips its per-call snapshot compare
        # only for planes it can prove immutable.
        planes = platform.calibration_planes(medium_image)
        assert _immutable(planes)
        assert np.array_equal(planes, extract_windows(medium_image))
