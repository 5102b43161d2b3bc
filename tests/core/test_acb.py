"""Tests for the Array Control Block."""

import warnings

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.core.acb import ArrayControlBlock, FitnessUnit
from repro.core.modes import FitnessSource
from repro.fpga.fabric import RegionAddress
from repro.imaging.metrics import sae
from repro.soc.register_map import AcbRegisters


@pytest.fixture
def acb(platform):
    return platform.acb(0)


class TestFitnessUnit:
    def test_compute_and_latch(self):
        unit = FitnessUnit()
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 2, dtype=np.uint8)
        assert unit.compute(a, b) == 32.0
        assert unit.last_value == 32.0
        assert unit.n_computations == 1

    def test_configure_source(self):
        unit = FitnessUnit()
        unit.configure(FitnessSource.NEIGHBOUR)
        assert unit.source == FitnessSource.NEIGHBOUR

    def test_configure_rejects_non_enum(self):
        with pytest.raises(TypeError):
            FitnessUnit().configure("reference")


class TestConfiguration:
    def test_configure_counts_only_changed_pes(self, acb, platform, identity_genotype):
        # First configuration from the identity-initialised fabric: zero writes.
        writes, elapsed = acb.configure(identity_genotype)
        assert writes == 0
        assert elapsed == 0.0
        # Changing two function genes requires exactly two PE writes.
        modified = identity_genotype.copy()
        modified.function_genes[0, 0] = 5
        modified.function_genes[2, 3] = 7
        writes, elapsed = acb.configure(modified)
        assert writes == 2
        assert elapsed == pytest.approx(2 * platform.engine.pe_reconfiguration_time_s)

    def test_configure_writes_mux_registers(self, acb, platform, random_genotype):
        acb.configure(random_genotype)
        for row, gene in enumerate(random_genotype.west_mux):
            assert platform.registers.read_register(
                0, AcbRegisters.WEST_MUX_BASE, lane=row
            ) == int(gene)
        assert platform.registers.read_register(0, AcbRegisters.OUTPUT_SELECT) == \
            random_genotype.output_select

    def test_configure_wrong_geometry(self, acb, rng):
        from repro.array.genotype import GenotypeSpec
        with pytest.raises(ValueError):
            acb.configure(Genotype.random(GenotypeSpec(2, 2), rng))

    def test_status_snapshot(self, acb, identity_genotype):
        status = acb.status()
        assert not status.configured
        acb.configure(identity_genotype)
        acb.set_bypass(True)
        status = acb.status()
        assert status.configured
        assert status.bypassed
        assert status.faulty_pes == ()


class TestDataPath:
    def test_process_identity(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        assert np.array_equal(acb.process(medium_image), medium_image)

    def test_process_requires_configuration(self, acb, medium_image):
        with pytest.raises(RuntimeError):
            acb.process(medium_image)

    def test_bypass_forwards_input(self, acb, random_genotype, medium_image):
        acb.configure(random_genotype)
        acb.set_bypass(True)
        assert np.array_equal(acb.process(medium_image), medium_image)
        # shadow_process still runs the array.
        shadow = acb.shadow_process(medium_image)
        assert shadow.shape == medium_image.shape

    def test_bypass_register_bit(self, acb, platform, identity_genotype):
        acb.configure(identity_genotype)
        acb.set_bypass(True)
        assert platform.registers.read_register(0, AcbRegisters.CONTROL) & 0x1
        acb.set_bypass(False)
        assert not platform.registers.read_register(0, AcbRegisters.CONTROL) & 0x1

    def test_fault_sync_from_fabric(self, platform, identity_genotype, medium_image):
        acb = platform.acb(1)
        acb.configure(identity_genotype)
        platform.inject_permanent_fault(1, 0, 0)
        out = acb.process(medium_image)
        assert not np.array_equal(out, medium_image)
        assert acb.status().faulty_pes == ((0, 0),)

    def test_latency_register(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        acb.set_reference(medium_image)
        acb.evaluate_fitness(medium_image)
        assert acb.registers.read_register(0, AcbRegisters.LATENCY_VALUE) == acb.latency_cycles


class TestFitnessEvaluation:
    def test_reference_source(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        acb.set_reference(medium_image)
        acb.set_fitness_source(FitnessSource.REFERENCE)
        assert acb.evaluate_fitness(medium_image) == 0.0

    def test_reference_missing_raises(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        acb.set_reference(None)
        with pytest.raises(RuntimeError):
            acb.evaluate_fitness(medium_image)

    def test_input_source(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        acb.set_fitness_source(FitnessSource.INPUT)
        # Identity circuit: output equals input, so input-vs-output MAE is zero.
        assert acb.evaluate_fitness(medium_image) == 0.0

    def test_neighbour_source(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        acb.set_fitness_source(FitnessSource.NEIGHBOUR)
        neighbour = np.clip(medium_image.astype(int) + 1, 0, 255).astype(np.uint8)
        expected = sae(medium_image, neighbour)
        assert acb.evaluate_fitness(medium_image, neighbour_output=neighbour) == expected

    def test_neighbour_source_requires_output(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        acb.set_fitness_source(FitnessSource.NEIGHBOUR)
        with pytest.raises(RuntimeError):
            acb.evaluate_fitness(medium_image)

    def test_fitness_latched_in_register(self, acb, identity_genotype, medium_image):
        acb.configure(identity_genotype)
        acb.set_reference(np.zeros_like(medium_image))
        value = acb.evaluate_fitness(medium_image)
        assert acb.registers.read_register(0, AcbRegisters.FITNESS_VALUE) == int(value)


class TestConstruction:
    def test_invalid_index(self, platform):
        with pytest.raises(ValueError):
            ArrayControlBlock(5, platform.fabric, platform.engine, platform.registers)


class TestSyncFaultsDeprecation:
    def test_public_sync_faults_mirrors_fabric_state(self, acb, platform, identity_genotype):
        acb.configure(identity_genotype)
        platform.fault_injector.inject_lpd(RegionAddress(0, 1, 2))
        acb.sync_faults()
        assert acb.array.faulty_positions == ((1, 2),)

    def test_public_sync_faults_emits_no_warning(self, acb):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acb.sync_faults()
