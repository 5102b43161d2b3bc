"""Functional simulator of the evolvable systolic array.

The array is a ``rows x cols`` mesh of Processing Elements.  Data flows
west-to-east and north-to-south: PE ``(r, c)`` takes its west input from
the east output of PE ``(r, c-1)`` (or, for the first column, from the
west-side array input of row ``r``) and its north input from the south
output of PE ``(r-1, c)`` (or, for the first row, from the north-side array
input of column ``c``).  Each PE output is registered and propagated to
both its east and south neighbours, so the array is a systolic pipeline.

For a 4x4 array there are eight array inputs (four north, four west), each
fed through a 9-to-1 multiplexer with one of the nine pixels of the 3x3
sliding window, and the array output is one of the four east-side outputs
selected by the output multiplexer (paper §III.A).

The simulator evaluates the whole image at once: every "signal" is a full
image plane and each PE operation is a vectorised NumPy expression, so one
candidate evaluation costs ``rows*cols`` element-wise operations — the key
to running evolution with thousands of generations in Python (see the
hpc-parallel optimisation guides: vectorise the inner loop).

*How* those operations are executed is pluggable: the array owns the
geometry, genotype validation and fault state, and delegates evaluation to
an :class:`~repro.backends.base.EvaluationBackend` selected by name
(``backend="reference"`` for the auditable per-PE sweep,
``backend="numpy"`` for the memoised vectorised engine; see
:mod:`repro.backends`).  Backends are bit-exact against each other — the
switch changes wall-clock time only, never results.

Fault support
-------------
``SystolicArray`` accepts a mapping of faulty PE positions.  A faulty PE
produces uniformly random output regardless of its configuration, matching
the paper's PE-level fault-emulation model (§VI.D: faults are injected "by
means of the reconfiguration engine ... with a modified bitstream
corresponding to a dummy PE, which generates a random value in its output").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.array.genotype import Genotype, GenotypeSpec, Population
from repro.array.window import N_WINDOW_PIXELS, extract_windows

if TYPE_CHECKING:  # pragma: no cover - runtime import stays lazy (cycle guard)
    from repro.backends.base import EvaluationBackend

__all__ = ["ArrayGeometry", "SystolicArray"]

@dataclass(frozen=True)
class ArrayGeometry:
    """Physical geometry of one processing array.

    The defaults reproduce the paper's floorplan numbers (§VI.A): each PE is
    two CLB columns wide by a quarter of a clock-region height (5 CLBs), so
    a 4x4 array occupies eight CLB columns of one clock region, 160 CLBs in
    total.
    """

    rows: int = 4
    cols: int = 4
    pe_clb_columns: int = 2
    pe_clb_rows: int = 5
    clock_region_clb_rows: int = 20

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array geometry must have at least one PE")
        if self.pe_clb_columns < 1 or self.pe_clb_rows < 1:
            raise ValueError("PE CLB footprint must be positive")

    @property
    def n_pes(self) -> int:
        """Number of PEs in the array."""
        return self.rows * self.cols

    @property
    def clbs_per_pe(self) -> int:
        """CLBs occupied by a single PE (paper: 2 columns x 5 rows = 10 CLBs)."""
        return self.pe_clb_columns * self.pe_clb_rows

    @property
    def total_clbs(self) -> int:
        """CLBs occupied by the whole array (paper: 160 for a 4x4 array)."""
        return self.n_pes * self.clbs_per_pe

    @property
    def clb_columns(self) -> int:
        """CLB columns spanned by the array (paper: 8 for a 4x4 array)."""
        return self.cols * self.pe_clb_columns

    def spec(self) -> GenotypeSpec:
        """The genotype spec matching this geometry."""
        return GenotypeSpec(rows=self.rows, cols=self.cols)


class SystolicArray:
    """Functional model of one evolvable processing array.

    Parameters
    ----------
    geometry:
        Array geometry (defaults to the paper's 4x4 array).
    faults:
        Optional mapping ``{(row, col): seed}`` of permanently faulty PE
        positions.  Faults can also be injected later via
        :meth:`inject_fault` (which is what :mod:`repro.fpga.faults` does).
    backend:
        Evaluation engine: a registered backend name (``"reference"``,
        ``"numpy"``), an :class:`~repro.backends.base.EvaluationBackend`
        instance, or ``None`` for the reference default.  All backends
        are bit-exact; see :mod:`repro.backends`.
    """

    def __init__(
        self,
        geometry: ArrayGeometry = ArrayGeometry(),
        faults: Optional[Mapping[Tuple[int, int], int]] = None,
        backend: Union[str, "EvaluationBackend", None] = None,
    ) -> None:
        self.geometry = geometry
        self._fault_rngs: Dict[Tuple[int, int], np.random.Generator] = {}
        # The last generator made for each position, with its seed and start
        # state.  Kept when a fault is cleared: restarting the same stream at
        # the same position (what every ACB fault sync does) rewinds that
        # generator in place instead of seeding a new one, and
        # reset_fault_streams() rewinds a reused array from these records.
        self._fault_starts: Dict[Tuple[int, int], Tuple[int, np.random.Generator, dict]] = {}
        if faults:
            for position, seed in faults.items():
                self.inject_fault(position, seed)
        self.set_backend(backend)

    # ------------------------------------------------------------------ #
    # Backend selection
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> "EvaluationBackend":
        """The evaluation engine currently driving this array."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the current evaluation engine."""
        return self._backend.name

    def set_backend(self, backend: Union[str, "EvaluationBackend", None]) -> None:
        """Select the evaluation engine (name, instance, or ``None`` = reference)."""
        from repro.backends import resolve_backend

        self._backend = resolve_backend(backend)

    # ------------------------------------------------------------------ #
    # Fault management (PE-level fault model)
    # ------------------------------------------------------------------ #
    @property
    def faulty_positions(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted tuple of currently faulty (row, col) PE positions."""
        return tuple(sorted(self._fault_rngs))

    @property
    def n_faults(self) -> int:
        """Number of faulty PEs."""
        return len(self._fault_rngs)

    def _check_position(self, position: Tuple[int, int]) -> Tuple[int, int]:
        row, col = int(position[0]), int(position[1])
        if not (0 <= row < self.geometry.rows and 0 <= col < self.geometry.cols):
            raise ValueError(
                f"PE position {position} outside the {self.geometry.rows}x"
                f"{self.geometry.cols} array"
            )
        return row, col

    def _spawn_fault_rng(self, position: Tuple[int, int], seed: int) -> np.random.Generator:
        """A generator at the start of ``seed``'s stream, for ``position``."""
        start = self._fault_starts.get(position)
        if start is not None and start[0] == seed:
            _, rng, state = start
            rng.bit_generator.state = state
            return rng
        rng = np.random.default_rng(seed)
        self._fault_starts[position] = (seed, rng, rng.bit_generator.state)
        return rng

    def inject_fault(self, position: Tuple[int, int], seed: int) -> None:
        """Mark a PE position as permanently damaged.

        The faulty PE will output random pixels on every evaluation; evolution
        can only recover by routing useful computation around that position.

        Each faulty position owns an independent random stream, (re)started
        here from ``seed``: injecting the same seed at the same position
        always reproduces the same garbage sequence, which is what makes
        fault campaigns replayable.
        """
        position = self._check_position(position)
        self._fault_rngs[position] = self._spawn_fault_rng(position, int(seed))

    def clear_fault(self, position: Tuple[int, int]) -> None:
        """Remove a previously injected fault (used by tests and scrubbing of SEUs)."""
        self._fault_rngs.pop(self._check_position(position), None)

    def clear_all_faults(self) -> None:
        """Remove every injected fault."""
        self._fault_rngs.clear()

    def reset_fault_streams(self) -> None:
        """Rewind every fault stream to the start of its seeded sequence.

        Evaluation consumes the per-position streams, so re-running a fault
        scenario on a *reused* array would otherwise continue mid-stream
        and produce different garbage than the first run.  This rewinds
        each position's generator to the seed it was injected with,
        making the next evaluation byte-identical to the first one after
        injection.  (:meth:`~repro.core.acb.ArrayControlBlock.sync_faults`
        achieves the same by re-injecting from the fabric state.)
        """
        for position in self._fault_rngs:
            seed = self._fault_starts[position][0]
            self._fault_rngs[position] = self._spawn_fault_rng(position, seed)

    def fault_seed(self, position: Tuple[int, int]) -> int:
        """The seed a faulty position's stream was started from."""
        if position not in self._fault_rngs:
            raise KeyError(position)
        return self._fault_starts[position][0]

    def is_faulty(self, position: Tuple[int, int]) -> bool:
        """Whether the PE at ``position`` is currently faulty."""
        return position in self._fault_rngs

    def fault_rng(self, position: Tuple[int, int]) -> np.random.Generator:
        """The garbage generator of a faulty position (backends draw from it).

        Each faulty position owns an independent random stream.  Every
        evaluation of a candidate consumes exactly ``ceil(H*W/4)``
        ``next_uint32`` words from it, in candidate order, whose bytes
        (low byte first, the tail of the last word discarded) are the
        candidate's ``(H, W)`` garbage plane — what one
        ``integers(0, 256, size=(H, W), dtype=np.uint8)`` call draws.
        The built-in population sweeps draw all candidates of an
        evaluation as one block (:meth:`draw_fault_planes`).  That is the
        contract that keeps all evaluation backends (and population vs
        per-candidate evaluation) bit-exact on fault experiments.

        Draw from it within one evaluation only: re-injecting the seed a
        position last used rewinds the same generator object in place.
        """
        return self._fault_rngs[position]

    def draw_fault_planes(self, position: Tuple[int, int], n: int, h: int, w: int) -> np.ndarray:
        """The next ``n`` garbage planes of a faulty position, as one block.

        Returns a fresh, writable ``(n, h, w)`` uint8 array whose row ``b``
        is byte for byte what the ``b``-th of ``n`` successive
        ``integers(0, 256, size=(h, w), dtype=np.uint8)`` calls would
        return, and leaves the generator in the same state.  NumPy's
        full-range uint8 sampler takes the bytes of one ``next_uint32``
        word at a time, low byte first, and drops the unused bytes of its
        last word per call; a full-range uint32 draw returns those same
        words, so one call of ``ceil(h*w/4)`` words per plane replaces
        ``n`` calls (``tests/backends/test_fault_draws.py`` pins this on
        four bit generators).  ``"<u4"`` keeps the byte order on any host.
        """
        hw = h * w
        words = self._fault_rngs[position].integers(
            0, 1 << 32, size=(n, -(-hw // 4)), dtype=np.uint32
        )
        return words.astype("<u4", copy=False).view(np.uint8)[:, :hw].reshape(n, h, w)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    @property
    def latency(self) -> int:
        """Pipeline latency in clock cycles from input to selected output.

        Each PE introduces one register stage; the longest path to an
        east-side output traverses ``cols`` PEs horizontally plus up to
        ``rows - 1`` vertical hops, so the hardware pads streams with FIFOs
        to this depth (the ACB "structures to compute and to deal with the
        variable latency of the arrays").
        """
        return self.geometry.cols + self.geometry.rows - 1

    def process_planes(self, planes: np.ndarray, genotype: Genotype) -> np.ndarray:
        """Evaluate a candidate circuit on pre-extracted window planes.

        The per-candidate entry point: cascaded stages, shadow evaluation
        and mission-time filtering need the output image itself; evolution
        scores candidates through :meth:`evaluate_population` instead.

        Parameters
        ----------
        planes:
            ``(9, H, W)`` uint8 array from :func:`repro.array.window.extract_windows`.
        genotype:
            The candidate circuit.

        Returns
        -------
        numpy.ndarray
            ``(H, W)`` uint8 output image.
        """
        planes = np.asarray(planes)
        if planes.ndim != 3 or planes.shape[0] != N_WINDOW_PIXELS:
            raise ValueError(
                f"planes must have shape (9, H, W), got {planes.shape}"
            )
        if planes.dtype != np.uint8:
            raise TypeError(f"planes must be uint8, got {planes.dtype}")
        spec = genotype.spec
        if (spec.rows, spec.cols) != (self.geometry.rows, self.geometry.cols):
            raise ValueError(
                f"genotype geometry {spec.rows}x{spec.cols} does not match array "
                f"{self.geometry.rows}x{self.geometry.cols}"
            )
        return self._backend.process_planes(self, planes, genotype)

    def evaluate_population(
        self,
        planes: np.ndarray,
        genotypes: Sequence[Genotype],
        reference: np.ndarray,
    ) -> np.ndarray:
        """Fitness of a whole candidate population in one backend call.

        The population entry point of the evaluation-backend protocol: each
        candidate's aggregated absolute error against ``reference`` (the
        paper's aggregated-MAE fitness,
        :func:`repro.imaging.metrics.sae`) is computed inside the backend,
        which can share hash-consed subprograms across the population and
        skip materialising per-candidate output images entirely (see
        :meth:`repro.backends.base.EvaluationBackend.evaluate_population`).

        Bit-exact against scoring candidates one at a time with
        :meth:`process_planes` + ``sae``: the values are identical floats
        and every faulty position consumes exactly ``ceil(H*W/4)``
        ``next_uint32`` words per candidate, in candidate order, from its
        own seeded stream (see :meth:`fault_rng`).

        Parameters
        ----------
        planes:
            ``(9, H, W)`` uint8 array from :func:`repro.array.window.extract_windows`.
        genotypes:
            The candidate circuits (all with this array's geometry): any
            sequence, or a :class:`~repro.array.genotype.Population`, whose
            one spec is checked once.
        reference:
            ``(H, W)`` reference image the fitness unit compares against,
            of any dtype.

        Returns
        -------
        numpy.ndarray
            ``(B,)`` float64 array; entry ``b`` is candidate ``b``'s fitness.
        """
        planes = np.asarray(planes)
        if planes.ndim != 3 or planes.shape[0] != N_WINDOW_PIXELS:
            raise ValueError(f"planes must have shape (9, H, W), got {planes.shape}")
        if planes.dtype != np.uint8:
            raise TypeError(f"planes must be uint8, got {planes.dtype}")
        if isinstance(genotypes, Population):
            specs = [genotypes.spec]
        else:
            genotypes = list(genotypes)
            specs = [genotype.spec for genotype in genotypes]
        if not genotypes:
            raise ValueError("genotypes must contain at least one candidate")
        rows, cols = self.geometry.rows, self.geometry.cols
        for spec in specs:
            if (spec.rows, spec.cols) != (rows, cols):
                raise ValueError(
                    f"genotype geometry {spec.rows}x{spec.cols} does not match "
                    f"array {rows}x{cols}"
                )
        reference = np.asarray(reference)
        if reference.shape != planes.shape[1:]:
            raise ValueError(
                f"reference shape {reference.shape} does not match the "
                f"{planes.shape[1:]} image planes"
            )
        # Any reference dtype is accepted, exactly like the per-candidate
        # sae() path: backends take an int16 fast reduce for uint8 (the
        # hardware pixel format) and sae()'s int64 arithmetic otherwise.
        return self._backend.evaluate_population(self, planes, genotypes, reference)

    def process(self, image: np.ndarray, genotype: Genotype) -> np.ndarray:
        """Evaluate a candidate circuit on an image (window extraction included)."""
        return self.process_planes(extract_windows(image), genotype)

    def process_stream(
        self, images: Iterable[np.ndarray], genotype: Genotype
    ) -> Iterable[np.ndarray]:
        """Lazily filter a stream of images with the same configured circuit.

        Mirrors mission-time operation where the configured array filters a
        continuous stream (e.g. camera frames) without reconfiguration.
        """
        for image in images:
            yield self.process(image, genotype)
