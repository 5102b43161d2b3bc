"""Frame-addressable configuration-memory model of the FPGA fabric.

The fabric is divided into *reconfigurable regions*, one per PE position of
every processing array, following the floorplan of the paper (§VI.A): each
PE occupies two CLB columns by five CLB rows (a quarter of a clock region),
each 4x4 array occupies eight CLB columns of one clock region, and arrays
stack vertically, one clock region per Array Control Block.

Each region stores:

* the **configuration words** currently written into it (the readback
  view of the configuration memory),
* the **function gene** those words implement (the golden intent),
* fault state: whether the region's configuration has been corrupted by a
  transient upset (SEU — repairable by rewriting the golden bitstream) and
  whether the silicon under it is permanently damaged (LPD — a region that
  misbehaves no matter what is written into it).

The behavioural consequence of fault state is exposed through
:meth:`FpgaFabric.effective_faults`, which the Array Control Block queries
before evaluating a candidate: a region that is corrupted or damaged makes
the corresponding PE produce garbage, which is exactly the paper's PE-level
fault model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.array.pe_library import PEFunction
from repro.array.systolic_array import ArrayGeometry
from repro.fpga.bitstream import DUMMY_FAULT_GENE, BitstreamLibrary, PartialBitstream

__all__ = ["RegionAddress", "RegionState", "FpgaFabric"]

#: Stream tag mixed into the fabric's SEU-targeting seed so the derived
#: stream is distinct from every other consumer of the same base seed.
#: ``FpgaFabric(seed=s)`` corrupts bits from
#: ``SeedSequence([_SEU_STREAM_TAG, s])`` (``s = 0`` when no seed is
#: given), making SEU campaigns replayable by recording ``s`` alone —
#: part of the documented RNG determinism contract
#: (``docs/architecture.md``).
_SEU_STREAM_TAG = 0x5EB1F1A5


@dataclass(frozen=True, order=True)
class RegionAddress:
    """Address of one reconfigurable PE region.

    Attributes
    ----------
    array_index:
        Which processing array (equivalently which ACB / clock region).
    row, col:
        PE position within that array.
    """

    array_index: int
    row: int
    col: int

    def __post_init__(self) -> None:
        if self.array_index < 0 or self.row < 0 or self.col < 0:
            raise ValueError("region address components must be non-negative")


@dataclass
class RegionState:
    """Mutable state of one reconfigurable region."""

    address: RegionAddress
    configured_gene: int = int(PEFunction.IDENTITY_W)
    words: Optional[np.ndarray] = field(default=None, repr=False)
    seu_corrupted: bool = False
    permanently_damaged: bool = False
    reconfiguration_count: int = 0

    @property
    def behaving_faulty(self) -> bool:
        """Whether the PE implemented by this region currently misbehaves."""
        return self.seu_corrupted or self.permanently_damaged or (
            self.configured_gene == DUMMY_FAULT_GENE
        )


class FpgaFabric:
    """Configuration memory of the reconfigurable part of the device.

    Parameters
    ----------
    n_arrays:
        Number of processing arrays (ACBs) floorplanned on the device.
    geometry:
        Per-array geometry (defaults to the paper's 4x4 array).
    library:
        Partial-bitstream library used to fill regions (a default library is
        created when omitted).
    seed:
        Base seed of the fabric's own SEU-targeting stream, used by
        :meth:`corrupt_region` when the caller supplies neither a bit
        index nor a generator.  Defaults to a documented constant
        (seed 0 under :data:`_SEU_STREAM_TAG`) so even the implicit
        path is replayable; pass the platform/bitstream seed to tie the
        stream to the experiment spec.
    """

    def __init__(
        self,
        n_arrays: int = 3,
        geometry: ArrayGeometry = ArrayGeometry(),
        library: Optional[BitstreamLibrary] = None,
        seed: Optional[int] = None,
    ) -> None:
        if n_arrays < 1:
            raise ValueError(f"n_arrays must be >= 1, got {n_arrays}")
        self.n_arrays = n_arrays
        self.geometry = geometry
        self.seed = 0 if seed is None else int(seed)
        self._seu_rng = np.random.default_rng(
            np.random.SeedSequence([_SEU_STREAM_TAG, self.seed])
        )
        self.library = library if library is not None else BitstreamLibrary(
            pe_clb_columns=geometry.pe_clb_columns
        )
        self._regions: Dict[RegionAddress, RegionState] = {}
        # Regions are fixed at construction, so each array's states are
        # indexed once here, in address order (row-major within the array).
        self._array_regions: List[List[RegionState]] = []
        for array_index in range(n_arrays):
            states: List[RegionState] = []
            for row in range(geometry.rows):
                for col in range(geometry.cols):
                    address = RegionAddress(array_index, row, col)
                    golden = self.library.get(int(PEFunction.IDENTITY_W))
                    state = RegionState(
                        address=address,
                        configured_gene=golden.function_gene,
                        words=golden.words.copy(),
                    )
                    self._regions[address] = state
                    states.append(state)
            self._array_regions.append(states)

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def _check_address(self, address: RegionAddress) -> RegionAddress:
        if address not in self._regions:
            raise KeyError(f"no reconfigurable region at {address}")
        return address

    def region(self, address: RegionAddress) -> RegionState:
        """Return the state of the region at ``address``."""
        return self._regions[self._check_address(address)]

    def regions_of_array(self, array_index: int) -> List[RegionState]:
        """All region states belonging to one processing array."""
        return list(self._regions_of(array_index))

    def _regions_of(self, array_index: int) -> List[RegionState]:
        """The held per-array index behind :meth:`regions_of_array` (not a copy)."""
        if not 0 <= array_index < self.n_arrays:
            raise ValueError(f"array_index out of range: {array_index}")
        return self._array_regions[array_index]

    def all_addresses(self) -> List[RegionAddress]:
        """All region addresses, sorted."""
        return sorted(self._regions)

    @property
    def n_regions(self) -> int:
        """Total number of reconfigurable PE regions."""
        return len(self._regions)

    # ------------------------------------------------------------------ #
    # Configuration access (used by the reconfiguration engine / scrubber)
    # ------------------------------------------------------------------ #
    def write_region(self, address: RegionAddress, bitstream: PartialBitstream) -> None:
        """Write a partial bitstream into a region (the writeback step).

        Writing a functional bitstream clears any SEU corruption of the
        region (the configuration memory now holds a clean copy); it does
        not repair permanent damage.
        """
        state = self.region(address)
        state.words = bitstream.words.copy()
        state.configured_gene = bitstream.function_gene
        state.seu_corrupted = False
        state.reconfiguration_count += 1

    def readback_region(self, address: RegionAddress) -> np.ndarray:
        """Read the configuration words currently stored in a region."""
        state = self.region(address)
        assert state.words is not None
        return state.words.copy()

    def verify_region(self, address: RegionAddress) -> bool:
        """Compare a region's readback against the golden bitstream of its gene.

        Returns ``True`` when the configuration is intact.  This is the check
        a scrubber performs ("reading the configuration memory to check for
        faults, and re-writing it in case that any fault is found", §II).
        """
        state = self.region(address)
        golden = self.library.get(state.configured_gene)
        assert state.words is not None
        return bool(np.array_equal(state.words, golden.words))

    # ------------------------------------------------------------------ #
    # Fault state manipulation (used by the fault injector)
    # ------------------------------------------------------------------ #
    def corrupt_region(self, address: RegionAddress, bit_index: Optional[int] = None,
                       rng: Optional[np.random.Generator] = None) -> int:
        """Flip one configuration bit in a region (an SEU).  Returns the bit index.

        The flipped bit is ``bit_index`` when given, otherwise a draw from
        ``rng``; with neither, the draw comes from the fabric's own seeded
        SEU stream (derived from the constructor ``seed``), so SEU campaigns
        replay bit-for-bit from the recorded seed.
        """
        state = self.region(address)
        assert state.words is not None
        n_bits = state.words.size * 32
        if bit_index is None:
            if rng is None:
                rng = self._seu_rng
            bit_index = int(rng.integers(0, n_bits))
        if not 0 <= bit_index < n_bits:
            raise ValueError(f"bit index {bit_index} out of range [0, {n_bits})")
        word_index, bit_in_word = divmod(bit_index, 32)
        state.words = state.words.copy()
        state.words[word_index] ^= np.uint32(1 << bit_in_word)
        state.seu_corrupted = True
        return bit_index

    def damage_region(self, address: RegionAddress) -> None:
        """Mark a region as permanently damaged (an LPD)."""
        self.region(address).permanently_damaged = True

    def repair_region(self, address: RegionAddress) -> None:
        """Clear permanent damage (used by tests to model device replacement)."""
        self.region(address).permanently_damaged = False

    # ------------------------------------------------------------------ #
    # Behavioural queries used by the platform layer
    # ------------------------------------------------------------------ #
    def effective_faults(self, array_index: int) -> List[Tuple[int, int]]:
        """(row, col) positions of array ``array_index`` whose PE misbehaves."""
        return [
            (state.address.row, state.address.col)
            for state in self._regions_of(array_index)
            if state.behaving_faulty
        ]

    def configured_genes(self, array_index: int) -> np.ndarray:
        """The function genes currently configured on one array, as a 2-D array."""
        genes = np.zeros((self.geometry.rows, self.geometry.cols), dtype=np.int16)
        for state in self._regions_of(array_index):
            genes[state.address.row, state.address.col] = state.configured_gene
        return genes

    def total_reconfigurations(self) -> int:
        """Total per-region reconfiguration count since construction."""
        return sum(state.reconfiguration_count for state in self._regions.values())
