"""Tests for the configuration-memory fabric model."""

import numpy as np
import pytest

from repro.array.pe_library import PEFunction
from repro.array.systolic_array import ArrayGeometry
from repro.fpga.bitstream import DUMMY_FAULT_GENE
from repro.fpga.fabric import FpgaFabric, RegionAddress


@pytest.fixture
def fabric():
    return FpgaFabric(n_arrays=3, seed=7)


class TestAddressing:
    def test_region_count(self, fabric):
        assert fabric.n_regions == 3 * 16
        assert len(fabric.all_addresses()) == 48

    def test_regions_of_array(self, fabric):
        regions = fabric.regions_of_array(1)
        assert len(regions) == 16
        assert all(state.address.array_index == 1 for state in regions)

    def test_regions_of_array_in_address_order(self, fabric):
        # The per-array index built at construction lists the same state
        # objects, in the same order, as sorting every region would.
        for array_index in range(fabric.n_arrays):
            expected = [
                fabric.region(address)
                for address in fabric.all_addresses()
                if address.array_index == array_index
            ]
            regions = fabric.regions_of_array(array_index)
            assert [id(state) for state in regions] == [id(state) for state in expected]

    def test_regions_of_array_returns_a_copy(self, fabric):
        regions = fabric.regions_of_array(0)
        regions.clear()
        regions = fabric.regions_of_array(1)
        regions.reverse()
        assert len(fabric.regions_of_array(0)) == 16
        assert fabric.regions_of_array(1)[0].address == RegionAddress(1, 0, 0)

    def test_invalid_array_index(self, fabric):
        with pytest.raises(ValueError):
            fabric.regions_of_array(3)
        with pytest.raises(ValueError):
            fabric.effective_faults(-1)

    def test_unknown_region(self, fabric):
        with pytest.raises(KeyError):
            fabric.region(RegionAddress(0, 5, 5))

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            RegionAddress(-1, 0, 0)

    def test_custom_geometry(self):
        fabric = FpgaFabric(n_arrays=2, geometry=ArrayGeometry(rows=2, cols=3))
        assert fabric.n_regions == 2 * 6

    def test_invalid_n_arrays(self):
        with pytest.raises(ValueError):
            FpgaFabric(n_arrays=0)


class TestConfiguration:
    def test_initial_state_is_identity(self, fabric):
        genes = fabric.configured_genes(0)
        assert np.all(genes == int(PEFunction.IDENTITY_W))

    def test_write_and_verify(self, fabric):
        address = RegionAddress(0, 1, 1)
        fabric.write_region(address, fabric.library.get(int(PEFunction.MAX)))
        assert fabric.region(address).configured_gene == int(PEFunction.MAX)
        assert fabric.verify_region(address)

    def test_readback_matches_write(self, fabric):
        address = RegionAddress(2, 0, 0)
        pbs = fabric.library.get(5)
        fabric.write_region(address, pbs)
        assert np.array_equal(fabric.readback_region(address), pbs.words)

    def test_reconfiguration_counter(self, fabric):
        address = RegionAddress(0, 0, 0)
        before = fabric.total_reconfigurations()
        fabric.write_region(address, fabric.library.get(2))
        fabric.write_region(address, fabric.library.get(3))
        assert fabric.total_reconfigurations() == before + 2


class TestFaultState:
    def test_seu_corruption_detected_by_verify(self, fabric):
        address = RegionAddress(0, 2, 2)
        bit = fabric.corrupt_region(address, bit_index=12345)
        assert bit == 12345
        assert not fabric.verify_region(address)
        assert fabric.region(address).seu_corrupted
        assert (2, 2) in fabric.effective_faults(0)

    def test_write_clears_seu(self, fabric):
        address = RegionAddress(0, 2, 2)
        fabric.corrupt_region(address)
        fabric.write_region(address, fabric.library.get(0))
        assert not fabric.region(address).seu_corrupted
        assert fabric.verify_region(address)

    def test_lpd_survives_write(self, fabric):
        address = RegionAddress(1, 3, 3)
        fabric.damage_region(address)
        fabric.write_region(address, fabric.library.get(0))
        assert fabric.region(address).permanently_damaged
        assert (3, 3) in fabric.effective_faults(1)

    def test_repair_region(self, fabric):
        address = RegionAddress(1, 3, 3)
        fabric.damage_region(address)
        fabric.repair_region(address)
        assert fabric.effective_faults(1) == []

    def test_dummy_gene_behaves_faulty(self, fabric):
        address = RegionAddress(0, 0, 1)
        fabric.write_region(address, fabric.library.get(DUMMY_FAULT_GENE))
        assert (0, 1) in fabric.effective_faults(0)

    def test_corrupt_bit_out_of_range(self, fabric):
        with pytest.raises(ValueError):
            fabric.corrupt_region(RegionAddress(0, 0, 0), bit_index=10**9)

    def test_faults_isolated_per_array(self, fabric):
        fabric.damage_region(RegionAddress(0, 1, 1))
        assert fabric.effective_faults(1) == []
        assert fabric.effective_faults(2) == []
