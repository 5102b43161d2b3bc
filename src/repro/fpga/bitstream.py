"""Partial bitstream (PBS) model and library.

In the real platform the 16 PE configurations are presynthesised partial
bitstreams stored in the external DDR2 memory; the reconfiguration engine
copies (and relocates) them into the configuration memory region of the
target PE.  Here a PBS is a deterministic pseudo-random block of
configuration words derived from the function gene, which gives the
fabric/scrubbing layer something concrete to verify against: a readback
that does not match the expected PBS content indicates configuration
corruption (an SEU), exactly the check a scrubber performs.

A special *dummy fault* bitstream is also provided — the paper injects
faults "reconfiguring dynamically the desired position of the array with a
modified bitstream corresponding to a dummy PE, which generates a random
value in its output" (§VI.D).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.array.pe_library import N_FUNCTIONS, function_name
from repro.fpga.icap import FRAME_WORDS, FRAMES_PER_CLB_COLUMN

__all__ = ["PartialBitstream", "BitstreamLibrary", "DUMMY_FAULT_GENE"]

#: Pseudo-gene identifying the dummy (fault-injection) bitstream.
DUMMY_FAULT_GENE = -1


@dataclass(frozen=True)
class PartialBitstream:
    """A presynthesised partial bitstream for one PE function.

    Attributes
    ----------
    function_gene:
        The PE function this bitstream implements (``0..15``), or
        :data:`DUMMY_FAULT_GENE` for the fault-injection dummy PE.
    words:
        Configuration payload as a read-only uint32 array.
    n_frames:
        Number of configuration frames covered.
    """

    function_gene: int
    words: np.ndarray = field(repr=False)
    n_frames: int

    def __post_init__(self) -> None:
        if self.words.dtype != np.uint32:
            raise TypeError("bitstream words must be uint32")
        if self.words.ndim != 1:
            raise ValueError("bitstream words must be a 1-D array")
        if len(self.words) != self.n_frames * FRAME_WORDS:
            raise ValueError(
                f"bitstream of {self.n_frames} frames must contain "
                f"{self.n_frames * FRAME_WORDS} words, got {len(self.words)}"
            )
        self.words.setflags(write=False)

    @property
    def n_words(self) -> int:
        """Number of 32-bit configuration words."""
        return int(len(self.words))

    @property
    def size_bytes(self) -> int:
        """Payload size in bytes."""
        return self.n_words * 4

    @property
    def name(self) -> str:
        """Human-readable name of the implemented function."""
        if self.function_gene == DUMMY_FAULT_GENE:
            return "DUMMY_FAULT"
        return function_name(self.function_gene)


@functools.lru_cache(maxsize=64)
def _generate(seed: int, n_frames: int, function_gene: int) -> PartialBitstream:
    """The PBS of ``function_gene``, a pure function of the three arguments.

    Bitstream words are read-only and the fabric copies them on write, so
    every library of the process shares one instance per key.
    """
    rng = np.random.default_rng((seed, function_gene & 0xFFFF))
    words = rng.integers(0, 2**32, size=n_frames * FRAME_WORDS, dtype=np.uint32)
    return PartialBitstream(function_gene=function_gene, words=words, n_frames=n_frames)


class BitstreamLibrary:
    """The library of presynthesised PE bitstreams kept in external memory.

    Parameters
    ----------
    pe_clb_columns:
        CLB columns occupied by one PE region (paper: 2), which together
        with the Virtex-5 frame geometry determines the PBS size.
    seed:
        Seed for the deterministic pseudo-content of each bitstream.
    """

    def __init__(self, pe_clb_columns: int = 2, seed: int = 2013) -> None:
        if pe_clb_columns < 1:
            raise ValueError("pe_clb_columns must be >= 1")
        self.pe_clb_columns = pe_clb_columns
        self.n_frames_per_pe = pe_clb_columns * FRAMES_PER_CLB_COLUMN
        self._seed = seed

    @property
    def pe_words(self) -> int:
        """Configuration words per PE bitstream."""
        return self.n_frames_per_pe * FRAME_WORDS

    def get(self, function_gene: int) -> PartialBitstream:
        """Return the PBS implementing ``function_gene`` (shared per process).

        ``function_gene`` may also be :data:`DUMMY_FAULT_GENE` to obtain the
        fault-injection dummy bitstream.
        """
        function_gene = int(function_gene)
        if function_gene != DUMMY_FAULT_GENE and not 0 <= function_gene < N_FUNCTIONS:
            raise ValueError(
                f"function gene must be in [0, {N_FUNCTIONS - 1}] or DUMMY_FAULT_GENE, "
                f"got {function_gene}"
            )
        return _generate(self._seed, self.n_frames_per_pe, function_gene)

    def dummy_fault(self) -> PartialBitstream:
        """The dummy-PE bitstream used for fault injection."""
        return self.get(DUMMY_FAULT_GENE)

    def __len__(self) -> int:
        """Number of functional bitstreams in the library (excludes the dummy)."""
        return N_FUNCTIONS

    def total_storage_bytes(self) -> int:
        """External-memory footprint of the functional library."""
        return N_FUNCTIONS * self.get(0).size_bytes
