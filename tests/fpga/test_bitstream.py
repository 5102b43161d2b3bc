"""Tests for the partial-bitstream library."""

import numpy as np
import pytest

from repro.array.pe_library import N_FUNCTIONS
from repro.fpga.bitstream import DUMMY_FAULT_GENE, BitstreamLibrary, PartialBitstream
from repro.fpga.fabric import FpgaFabric, RegionAddress
from repro.fpga.icap import FRAME_WORDS


class TestBitstreamLibrary:
    def test_sixteen_functional_bitstreams(self):
        library = BitstreamLibrary()
        assert len(library) == N_FUNCTIONS

    def test_bitstream_size_matches_pe_footprint(self):
        library = BitstreamLibrary(pe_clb_columns=2)
        pbs = library.get(0)
        assert pbs.n_frames == 72
        assert pbs.n_words == 72 * FRAME_WORDS
        assert pbs.size_bytes == pbs.n_words * 4

    def test_deterministic_content(self):
        a = BitstreamLibrary(seed=1).get(3)
        b = BitstreamLibrary(seed=1).get(3)
        assert np.array_equal(a.words, b.words)

    def test_distinct_functions_distinct_content(self):
        library = BitstreamLibrary()
        assert not np.array_equal(library.get(0).words, library.get(1).words)

    def test_cache_returns_same_object(self):
        library = BitstreamLibrary()
        assert library.get(5) is library.get(5)

    def test_dummy_fault_bitstream(self):
        library = BitstreamLibrary()
        dummy = library.dummy_fault()
        assert dummy.function_gene == DUMMY_FAULT_GENE
        assert dummy.name == "DUMMY_FAULT"

    def test_invalid_gene(self):
        library = BitstreamLibrary()
        with pytest.raises(ValueError):
            library.get(16)
        with pytest.raises(ValueError):
            library.get(-2)

    def test_total_storage(self):
        library = BitstreamLibrary()
        assert library.total_storage_bytes() == N_FUNCTIONS * library.get(0).size_bytes

    def test_bitstream_words_read_only(self):
        pbs = BitstreamLibrary().get(0)
        with pytest.raises(ValueError):
            pbs.words[0] = 0

    def test_name_of_functional_bitstream(self):
        assert BitstreamLibrary().get(1).name == "IDENTITY_W"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BitstreamLibrary(pe_clb_columns=0)
        with pytest.raises(TypeError):
            PartialBitstream(function_gene=0, words=np.zeros(41, dtype=np.uint64), n_frames=1)
        with pytest.raises(ValueError):
            PartialBitstream(function_gene=0, words=np.zeros(40, dtype=np.uint32), n_frames=1)


class TestSharedContent:
    """Bitstream content is shared by every library of the process."""

    def test_libraries_share_one_instance_per_key(self):
        assert BitstreamLibrary().get(5) is BitstreamLibrary().get(5)
        assert BitstreamLibrary(seed=1).get(5) is not BitstreamLibrary().get(5)
        assert BitstreamLibrary(pe_clb_columns=1).get(5).n_frames == 36

    def test_corrupting_one_fabric_leaves_the_shared_words_intact(self):
        first, second = FpgaFabric(n_arrays=1, seed=3), FpgaFabric(n_arrays=1, seed=4)
        address = RegionAddress(0, 1, 2)
        golden = first.library.get(first.region(address).configured_gene)
        assert second.library.get(second.region(address).configured_gene) is golden
        pristine = golden.words.copy()
        first.corrupt_region(address, bit_index=5)
        assert not first.verify_region(address)
        assert second.verify_region(address)
        assert np.array_equal(golden.words, pristine)
