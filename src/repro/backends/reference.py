"""The ``reference`` evaluation backend: the readable per-PE sweep.

This is the original evaluation path of
:class:`~repro.array.systolic_array.SystolicArray`, hosted behind the
:class:`~repro.backends.base.EvaluationBackend` protocol: a row-major
sweep over the PE mesh where every "signal" is a whole image plane and
each PE applies one vectorised NumPy operation.  It is deliberately a
direct transcription of the hardware's data flow (paper §III.A) — easy
to audit against the paper, and the semantics every faster engine is
validated against bit for bit:

>>> import numpy as np
>>> from repro.array import Genotype, SystolicArray
>>> image = np.arange(64, dtype=np.uint8).reshape(8, 8)
>>> genotype = Genotype.random(rng=1)
>>> reference = SystolicArray(backend="reference").process(image, genotype)
>>> vectorised = SystolicArray(backend="numpy").process(image, genotype)
>>> bool((reference == vectorised).all())
True
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.array.pe_library import apply_function, function_table
from repro.backends.base import EvaluationBackend
from repro.imaging.metrics import sae_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.genotype import Genotype
    from repro.array.systolic_array import SystolicArray

__all__ = ["ReferenceBackend"]

#: Function implementations indexed by gene value, resolved once: the
#: population sweep dispatches through this table directly to skip the
#: per-call validation of :func:`apply_function` (genes are validated by
#: Genotype).
_IMPLS_BY_GENE = function_table()


class ReferenceBackend(EvaluationBackend):
    """Per-PE reference sweep (one whole-plane NumPy op per PE position)."""

    name = "reference"

    def process_planes(
        self, array: "SystolicArray", planes: np.ndarray, genotype: "Genotype"
    ) -> np.ndarray:
        rows, cols = array.geometry.rows, array.geometry.cols
        # Array inputs selected by the 9-to-1 multiplexers.
        west_inputs = [planes[int(genotype.west_mux[r])] for r in range(rows)]
        north_inputs = [planes[int(genotype.north_mux[c])] for c in range(cols)]

        # east[r] holds the east output of the PE most recently computed in
        # row r; south[c] likewise for column c.  Sweeping in row-major order
        # respects the systolic data dependencies.
        east: list = list(west_inputs)
        south: list = list(north_inputs)
        for r in range(rows):
            for c in range(cols):
                west = east[r]
                north = south[c]
                position = (r, c)
                if array.is_faulty(position):
                    # The literal per-call uint8 draw, kept on purpose: it
                    # is the oracle the population paths' block draw
                    # (SystolicArray.draw_fault_planes) is tested against.
                    output = array.fault_rng(position).integers(
                        0, 256, size=west.shape, dtype=np.uint8
                    )
                else:
                    output = apply_function(int(genotype.function_genes[r, c]), west, north)
                east[r] = output
                south[c] = output
        return east[int(genotype.output_select)]

    def evaluate_population(
        self,
        array: "SystolicArray",
        planes: np.ndarray,
        genotypes: Sequence["Genotype"],
        reference: np.ndarray,
    ) -> np.ndarray:
        """One sweep over the whole population, then ``sae_batch``.

        Each PE position runs once on ``(B, H, W)`` stacks instead of once
        per candidate; :meth:`process_planes` stays the oracle it is
        tested against.
        """
        rows, cols = array.geometry.rows, array.geometry.cols
        n = len(genotypes)
        h, w = planes.shape[1:]
        # Gene bookkeeping runs over tiny (B,)-sized vectors, so plain Python
        # lists beat numpy reductions here; the numpy work is reserved for
        # the (B, H, W) image planes.
        west_mux = np.stack([g.west_mux for g in genotypes]).T.tolist()       # rows x B
        north_mux = np.stack([g.north_mux for g in genotypes]).T.tolist()     # cols x B
        functions = (
            np.stack([g.function_genes for g in genotypes]).reshape(n, -1).T.tolist()
        )  # (rows*cols) x B
        output_select = [int(g.output_select) for g in genotypes]
        impls = _IMPLS_BY_GENE

        def select_planes(genes: list) -> np.ndarray:
            # (B,) mux genes -> (B, H, W) array inputs.  Stride-0 broadcast
            # views defeat numpy's contiguous fast paths inside the PE
            # functions, so the batch is materialised either way; the
            # all-same case (the common one: mux mutations are rare) still
            # avoids the fancy-indexing gather.
            first = genes[0]
            if genes.count(first) == n:
                return np.ascontiguousarray(np.broadcast_to(planes[first], (n, h, w)))
            return planes[np.asarray(genes)]

        east: list = [select_planes(west_mux[r]) for r in range(rows)]
        south: list = [select_planes(north_mux[c]) for c in range(cols)]
        for r in range(rows):
            for c in range(cols):
                west = east[r]
                north = south[c]
                position = (r, c)
                if array.is_faulty(position):
                    # One block whose rows are the candidates' draws, in
                    # candidate order, so the per-position RNG stream
                    # matches sequential evaluation.
                    output = array.draw_fault_planes(position, n, h, w)
                else:
                    # Mutated offspring share most genes with their parent, so
                    # almost every candidate agrees on the function here: run
                    # the majority function over the whole batch in one pass
                    # and patch the few dissenting candidates individually.
                    genes = functions[r * cols + c]
                    first = genes[0]
                    if genes.count(first) == n:
                        output = impls[first](west, north)
                    else:
                        majority = max(set(genes), key=genes.count)
                        output = impls[majority](west, north)
                        for i, gene in enumerate(genes):
                            if gene != majority:
                                output[i] = impls[gene](west[i], north[i])
                east[r] = output
                south[c] = output

        first_select = output_select[0]
        if output_select.count(first_select) == n:
            outputs = east[first_select]
        else:
            majority_row = max(set(output_select), key=output_select.count)
            outputs = east[majority_row]
            for i, row in enumerate(output_select):
                if row != majority_row:
                    outputs[i] = east[row][i]
        return sae_batch(outputs, reference).astype(np.float64)
