"""CGP-style genotype for the evolvable systolic array.

A genotype "is the set of coded values that defines exactly one solution
and allows to create the phenotype, i.e. the implementation of the circuit
described by the genotype" (paper §III.A).  For a ``rows x cols`` array:

* one **function gene** per PE, valued ``0..15`` (4 bits each) — selects
  which presynthesised partial bitstream is placed at that PE position;
* one **west-mux gene** per array row and one **north-mux gene** per array
  column, valued ``0..8`` — selects which of the nine sliding-window pixels
  feeds that array input (the 9-to-1 input multiplexers);
* one **output-select gene**, valued ``0..rows-1`` — selects which of the
  east-side outputs is the array output (the output multiplexer).

Only function-gene changes require partial reconfiguration of the fabric;
the multiplexer genes live in ACB control registers and are written over
the bus.  The distinction matters for the evolution-time model (Figs. 12-14
report time as a function of the mutation rate precisely because mutations
of function genes dominate the reconfiguration cost).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.array.pe_library import N_FUNCTIONS
from repro.array.window import N_WINDOW_PIXELS

__all__ = ["GenotypeSpec", "Genotype", "GeneKind", "Population"]


class GeneKind:
    """Symbolic names for the three gene categories."""

    FUNCTION = "function"
    WEST_MUX = "west_mux"
    NORTH_MUX = "north_mux"
    OUTPUT = "output"


@dataclass(frozen=True)
class GenotypeSpec:
    """Shape and alphabet of a genotype for a given array geometry.

    Parameters
    ----------
    rows, cols:
        Array dimensions in PEs (paper: 4x4).
    """

    rows: int = 4
    cols: int = 4

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array must have at least 1x1 PEs, got {self.rows}x{self.cols}")

    @property
    def n_pes(self) -> int:
        """Number of processing elements (function genes)."""
        return self.rows * self.cols

    @property
    def n_west_inputs(self) -> int:
        """Number of west-side array inputs (one per row)."""
        return self.rows

    @property
    def n_north_inputs(self) -> int:
        """Number of north-side array inputs (one per column)."""
        return self.cols

    @property
    def n_mux_genes(self) -> int:
        """Total number of input-mux genes."""
        return self.n_west_inputs + self.n_north_inputs

    @property
    def n_genes(self) -> int:
        """Total gene count: functions + input muxes + output select."""
        return self.n_pes + self.n_mux_genes + 1

    def gene_bits(self) -> int:
        """Total genotype length in bits under the paper's 4-bit coding.

        Function genes use 4 bits (16 functions), mux genes use 4 bits
        (9 window pixels, rounded up), and the output-select gene uses as
        many bits as needed for ``rows`` values.
        """
        out_bits = max(1, int(np.ceil(np.log2(max(2, self.rows)))))
        return 4 * self.n_pes + 4 * self.n_mux_genes + out_bits

    def gene_kind(self, index: int) -> str:
        """Map a flat gene index to its :class:`GeneKind` category."""
        if not 0 <= index < self.n_genes:
            raise IndexError(f"gene index {index} out of range [0, {self.n_genes})")
        if index < self.n_pes:
            return GeneKind.FUNCTION
        index -= self.n_pes
        if index < self.n_west_inputs:
            return GeneKind.WEST_MUX
        index -= self.n_west_inputs
        if index < self.n_north_inputs:
            return GeneKind.NORTH_MUX
        return GeneKind.OUTPUT

    def gene_alphabet_size(self, index: int) -> int:
        """Number of legal values of the gene at flat index ``index``."""
        kind = self.gene_kind(index)
        if kind == GeneKind.FUNCTION:
            return N_FUNCTIONS
        if kind in (GeneKind.WEST_MUX, GeneKind.NORTH_MUX):
            return N_WINDOW_PIXELS
        return self.rows


@dataclass
class Genotype:
    """A complete candidate-circuit description.

    Attributes
    ----------
    spec:
        The :class:`GenotypeSpec` describing the array geometry.
    function_genes:
        ``(rows, cols)`` uint8 array of PE function genes.
    west_mux:
        ``(rows,)`` uint8 array of west-input window selections.
    north_mux:
        ``(cols,)`` uint8 array of north-input window selections.
    output_select:
        Row index (east side) routed to the array output.
    """

    spec: GenotypeSpec
    function_genes: np.ndarray
    west_mux: np.ndarray
    north_mux: np.ndarray
    output_select: int

    def __post_init__(self) -> None:
        self.function_genes = np.asarray(self.function_genes, dtype=np.uint8)
        self.west_mux = np.asarray(self.west_mux, dtype=np.uint8)
        self.north_mux = np.asarray(self.north_mux, dtype=np.uint8)
        self.output_select = int(self.output_select)
        self.validate()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        spec: GenotypeSpec = GenotypeSpec(),
        rng: Union[int, np.random.Generator, None] = None,
    ) -> "Genotype":
        """Draw a uniformly random genotype (the first-generation candidate)."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return cls(
            spec=spec,
            function_genes=rng.integers(
                0, N_FUNCTIONS, size=(spec.rows, spec.cols), dtype=np.uint8
            ),
            west_mux=rng.integers(0, N_WINDOW_PIXELS, size=spec.rows, dtype=np.uint8),
            north_mux=rng.integers(0, N_WINDOW_PIXELS, size=spec.cols, dtype=np.uint8),
            output_select=int(rng.integers(0, spec.rows)),
        )

    @classmethod
    def identity(cls, spec: GenotypeSpec = GenotypeSpec()) -> "Genotype":
        """A pass-through circuit: every PE forwards its west input and the
        west inputs select the window centre pixel.

        Useful as a calibration circuit and as a known-good phenotype in
        tests (its output equals its input image exactly).
        """
        from repro.array.pe_library import PEFunction
        from repro.array.window import N_WINDOW_PIXELS

        centre = N_WINDOW_PIXELS // 2
        return cls(
            spec=spec,
            function_genes=np.full(
                (spec.rows, spec.cols), int(PEFunction.IDENTITY_W), dtype=np.uint8
            ),
            west_mux=np.full(spec.rows, centre, dtype=np.uint8),
            north_mux=np.full(spec.cols, centre, dtype=np.uint8),
            output_select=0,
        )

    # ------------------------------------------------------------------ #
    # Validation and flat-vector views
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` if any gene is out of its alphabet."""
        spec = self.spec
        if self.function_genes.shape != (spec.rows, spec.cols):
            raise ValueError(
                f"function_genes shape {self.function_genes.shape} does not match "
                f"array geometry {(spec.rows, spec.cols)}"
            )
        if self.west_mux.shape != (spec.rows,):
            raise ValueError(f"west_mux must have {spec.rows} entries")
        if self.north_mux.shape != (spec.cols,):
            raise ValueError(f"north_mux must have {spec.cols} entries")
        if self.function_genes.max(initial=0) >= N_FUNCTIONS:
            raise ValueError("function gene out of range")
        if self.west_mux.max(initial=0) >= N_WINDOW_PIXELS:
            raise ValueError("west_mux gene out of range")
        if self.north_mux.max(initial=0) >= N_WINDOW_PIXELS:
            raise ValueError("north_mux gene out of range")
        if not 0 <= self.output_select < spec.rows:
            raise ValueError(
                f"output_select must be in [0, {spec.rows}), got {self.output_select}"
            )

    def copy(self) -> "Genotype":
        """Deep copy of the genotype."""
        return Genotype(
            spec=self.spec,
            function_genes=self.function_genes.copy(),
            west_mux=self.west_mux.copy(),
            north_mux=self.north_mux.copy(),
            output_select=self.output_select,
        )

    def to_flat(self) -> np.ndarray:
        """Flatten to a 1-D integer gene vector (function genes first, then
        west muxes, north muxes and the output gene)."""
        return np.concatenate(
            [
                self.function_genes.reshape(-1).astype(np.int64),
                self.west_mux.astype(np.int64),
                self.north_mux.astype(np.int64),
                np.array([self.output_select], dtype=np.int64),
            ]
        )

    @classmethod
    def from_flat(cls, spec: GenotypeSpec, flat: Sequence[int]) -> "Genotype":
        """Rebuild a genotype from a flat gene vector produced by :meth:`to_flat`."""
        flat = np.asarray(flat, dtype=np.int64)
        if flat.shape != (spec.n_genes,):
            raise ValueError(f"expected {spec.n_genes} genes, got {flat.shape}")
        n_pes = spec.n_pes
        function_genes = flat[:n_pes].reshape(spec.rows, spec.cols)
        west = flat[n_pes : n_pes + spec.rows]
        north = flat[n_pes + spec.rows : n_pes + spec.rows + spec.cols]
        output = int(flat[-1])
        return cls(
            spec=spec,
            function_genes=function_genes.astype(np.uint8),
            west_mux=west.astype(np.uint8),
            north_mux=north.astype(np.uint8),
            output_select=output,
        )

    # ------------------------------------------------------------------ #
    # Bit-level encoding (matches the 4-bit gene coding of the paper)
    # ------------------------------------------------------------------ #
    def to_bits(self) -> np.ndarray:
        """Pack the genotype into a bit vector (uint8 of 0/1 values).

        Function and mux genes are packed MSB-first in 4 bits each; the
        output-select gene uses ``ceil(log2(rows))`` bits.  The encoding is
        what the partial-bitstream / configuration-register layer stores.
        """
        bits: List[int] = []
        for gene in self.function_genes.reshape(-1):
            bits.extend((int(gene) >> shift) & 1 for shift in (3, 2, 1, 0))
        for gene in np.concatenate([self.west_mux, self.north_mux]):
            bits.extend((int(gene) >> shift) & 1 for shift in (3, 2, 1, 0))
        out_bits = max(1, int(np.ceil(np.log2(max(2, self.spec.rows)))))
        bits.extend((self.output_select >> shift) & 1 for shift in range(out_bits - 1, -1, -1))
        return np.array(bits, dtype=np.uint8)

    @classmethod
    def from_bits(cls, spec: GenotypeSpec, bits: Iterable[int]) -> "Genotype":
        """Inverse of :meth:`to_bits`."""
        bits = np.asarray(list(bits), dtype=np.uint8)
        if bits.shape != (spec.gene_bits(),):
            raise ValueError(f"expected {spec.gene_bits()} bits, got {bits.shape}")
        pos = 0

        def take(n_bits: int) -> int:
            nonlocal pos
            value = 0
            for _ in range(n_bits):
                value = (value << 1) | int(bits[pos])
                pos += 1
            return value

        functions = np.array([take(4) for _ in range(spec.n_pes)], dtype=np.uint8)
        west = np.array([take(4) for _ in range(spec.n_west_inputs)], dtype=np.uint8)
        north = np.array([take(4) for _ in range(spec.n_north_inputs)], dtype=np.uint8)
        out_bits = max(1, int(np.ceil(np.log2(max(2, spec.rows)))))
        output = take(out_bits)
        return cls(
            spec=spec,
            function_genes=functions.reshape(spec.rows, spec.cols),
            west_mux=west,
            north_mux=north,
            output_select=output,
        )

    # ------------------------------------------------------------------ #
    # Comparison helpers
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Genotype):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.function_genes, other.function_genes)
            and np.array_equal(self.west_mux, other.west_mux)
            and np.array_equal(self.north_mux, other.north_mux)
            and self.output_select == other.output_select
        )

    def hamming_distance(self, other: "Genotype") -> int:
        """Number of genes that differ between two genotypes of the same spec."""
        if self.spec != other.spec:
            raise ValueError("cannot compare genotypes with different specs")
        return int(np.count_nonzero(self.to_flat() != other.to_flat()))

    def changed_function_positions(self, other: "Genotype") -> List[Tuple[int, int]]:
        """(row, col) positions whose *function* gene differs from ``other``.

        This is exactly the set of PEs that must be partially reconfigured
        to move the fabric from ``other``'s phenotype to this one, and is
        the quantity the reconfiguration-engine timing model charges for.
        """
        if self.spec != other.spec:
            raise ValueError("cannot compare genotypes with different specs")
        diff = self.function_genes != other.function_genes
        rows, cols = np.nonzero(diff)
        return list(zip(rows.tolist(), cols.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Genotype({self.spec.rows}x{self.spec.cols}, "
            f"functions={self.function_genes.reshape(-1).tolist()}, "
            f"west={self.west_mux.tolist()}, north={self.north_mux.tolist()}, "
            f"out={self.output_select})"
        )


def _row_genotype(spec: GenotypeSpec, row: np.ndarray, output: int) -> Genotype:
    """An unvalidated genotype whose gene arrays are views of ``row``.

    ``row`` holds every gene but the output select, in flat-gene order.
    """
    genotype = object.__new__(Genotype)
    n_pes, rows = spec.n_pes, spec.rows
    genotype.spec = spec
    genotype.function_genes = row[:n_pes].reshape(rows, spec.cols)
    genotype.west_mux = row[n_pes : n_pes + rows]
    genotype.north_mux = row[n_pes + rows :]
    genotype.output_select = output
    return genotype


class Population(Sequence):
    """Candidate genotypes of one spec as the rows of one read-only gene matrix.

    Row ``i`` of :attr:`genes`, a ``(n, n_genes - 1)`` uint8 matrix, holds
    every gene of candidate ``i`` but the output select, in flat-gene order
    (function genes row-major, then the west and north muxes);
    :attr:`outputs` holds the output selects (row indices, which may not
    fit a byte).  Item ``i`` is a read-only :class:`Genotype` view of row
    ``i``, built when it is asked for, so the evolution drivers carry a
    whole generation through placement and the fitness pipeline without
    building a per-candidate object.

    :attr:`keys` are the candidates' memo keys: the gene bytes of a row
    followed by the output select as 4 little-endian bytes
    (:func:`repro.backends.signature.candidate_bytes`).  The rows are the
    consecutive ``n_genes - 1`` byte runs of ``data``, held as an immutable
    ``bytes`` object (a copy, unless ``data`` already is one) that the
    matrix only views, so neither the genes nor their keys can change after
    construction.
    """

    __slots__ = ("spec", "outputs", "_data", "_genes", "_keys")

    def __init__(self, spec: GenotypeSpec, data: bytes, outputs: Sequence[int]) -> None:
        self.spec = spec
        self.outputs = list(outputs)
        self._data: Optional[bytes] = bytes(data)
        self._genes: Optional[np.ndarray] = None  # viewed from _data on first use
        self._keys: Optional[List[bytes]] = None  # sliced from _data on first use

    @classmethod
    def of(cls, genotypes: Sequence[Genotype]) -> "Population":
        """``genotypes`` as a population (returned as is if it already is one).

        Every genotype must share one spec; the genes are copied, so later
        in-place edits of the genotypes do not reach the population.
        """
        if isinstance(genotypes, Population):
            return genotypes
        genotypes = list(genotypes)
        if not genotypes:
            raise ValueError("a population needs at least one genotype")
        spec = genotypes[0].spec
        outputs: List[int] = []
        keys: List[bytes] = []
        for genotype in genotypes:
            if genotype.spec is not spec and genotype.spec != spec:
                raise ValueError("every genotype of a population must share one spec")
            output = int(genotype.output_select)
            outputs.append(output)
            keys.append(
                genotype.function_genes.tobytes()
                + genotype.west_mux.tobytes()
                + genotype.north_mux.tobytes()
                + output.to_bytes(4, "little")
            )
        # Built from its keys: the byte buffer is joined from them on first use.
        population = cls.__new__(cls)
        population.spec, population.outputs = spec, outputs
        population._data = population._genes = None
        population._keys = keys
        return population

    @property
    def genes(self) -> np.ndarray:
        """The read-only ``(n, n_genes - 1)`` uint8 gene matrix."""
        if self._genes is None:
            if self._data is None:
                self._data = b"".join([key[:-4] for key in self._keys])
            genes = np.frombuffer(self._data, dtype=np.uint8)
            self._genes = genes.reshape(len(self.outputs), self.spec.n_genes - 1)
        return self._genes

    @property
    def functions(self) -> np.ndarray:
        """The ``(n, n_pes)`` function-gene columns of :attr:`genes`."""
        return self.genes[:, : self.spec.n_pes]

    @property
    def keys(self) -> List[bytes]:
        """Each candidate's gene bytes plus its output select (4 bytes, little-endian).

        Computed once per population, by slicing its byte buffer.
        """
        if self._keys is None:
            data, width = self._data, self.spec.n_genes - 1
            self._keys = [
                data[start : start + width] + output.to_bytes(4, "little")
                for start, output in zip(range(0, len(data), width), self.outputs)
            ]
        return self._keys

    def take(self, rows: Iterable[int]) -> "Population":
        """The sub-population of ``rows`` (row numbers), in that order."""
        rows = list(rows)
        taken = Population(self.spec, self.genes[rows].tobytes(), [self.outputs[i] for i in rows])
        if self._keys is not None:
            taken._keys = [self._keys[i] for i in rows]
        return taken

    def detached(self, index: int) -> Genotype:
        """A writable genotype of row ``index`` that shares no memory with the population."""
        return _row_genotype(self.spec, self.genes[index].copy(), self.outputs[index])

    def __len__(self) -> int:
        return len(self.outputs)

    def __getitem__(self, index: int) -> Genotype:
        return _row_genotype(self.spec, self.genes[index], self.outputs[index])

