"""The ``numpy`` evaluation backend: genotypes lowered to vectorised pipelines.

The reference sweep evaluates ``rows*cols`` whole-plane operations per
candidate, every time, even though (1+λ) evolution evaluates thousands of
candidates that are tiny mutations of each other on the *same* training
planes.  This engine exploits that structure while staying bit-exact:

**Lowering.**  Each genotype is lowered to a data-flow program over the
nine window planes (extracted once by the caller, via the stride-tricks
style shifted views of :func:`repro.array.window.extract_windows`).  Each
PE position becomes one whole-plane NumPy operation; pass-through PEs
(``IDENTITY_W``/``IDENTITY_N``) become aliases instead of copies, and
``CONST_MAX`` collapses to one shared constant plane.

**Dead-PE elimination.**  The array output is the east output of PE
``(output_select, cols - 1)``; a PE at row ``r`` can only influence PEs
at rows ``>= r``, so every PE below the selected output row is dead code
and is never evaluated.  (Faulty positions still consume their random
draws — see below.)

**Hash-consed memoisation.**  Every evaluated subcircuit gets a
structural signature ``(function gene, west id, north id)``; equal
signatures mean equal output planes, so each distinct subcircuit is
evaluated once per population — and, because the signature store is kept
per training-plane set, once per *evolution run*: offspring share almost all
of their parent's subcircuits, so a generation costs only the handful of
planes its mutations actually changed.

**Fault semantics.**  A faulty PE's output is random, not structural, so
fault outputs are drawn up front: one block per faulty position per
evaluation, from each position's own generator, in which every candidate
consumes ``ceil(H*W/4)`` ``next_uint32`` words in candidate order —
exactly the words of the reference's per-candidate ``(H, W)`` draws
(:meth:`~repro.array.systolic_array.SystolicArray.draw_fault_planes`).
Everything downstream of a fault is memoised per call only (its
signature embeds the draw, which never recurs).

**Plane memory.**  Every kernel writes into an ``out`` plane it is given
(:data:`_KERNELS`).  A memoised node's plane is a slot of a ``(16, H, W)``
slab (fewer planes under a small ``max_cache_bytes``) from a bounded,
process-wide pool; a plane store hands its slabs back when it dies, and
the pool keeps at most the returning backend's budget of free slabs per
shape.  A fresh platform's stores so reuse pages an earlier run already
faulted in, instead of faulting in a new 16 KB array per node at
128x128.  Only pages are shared across runs, never values.
Fault-tainted planes are per-call arrays outside the pool, because
:meth:`NumpyBackend.process_planes` may hand them to the caller.

The engine is bit-exact against ``reference`` on every PE function,
processing mode and fault pattern (``tests/backends/`` enforces this),
and ``benchmarks/test_bench_backends.py`` gates its >=5x speedup on the
Fig. 12/13 evolution workload.

>>> import numpy as np
>>> from repro.array import Genotype, SystolicArray
>>> from repro.backends import NumpyBackend
>>> backend = NumpyBackend(max_cache_bytes=1 << 20)
>>> array = SystolicArray(backend=backend)
>>> image = np.zeros((8, 8), dtype=np.uint8)
>>> array.process(image, Genotype.identity()).shape
(8, 8)
>>> backend.clear_cache()  # drop the memoised planes explicitly
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.array.genotype import Population
from repro.array.pe_library import FUNCTION_ARITY, N_FUNCTIONS, PEFunction
from repro.backends.base import EvaluationBackend

# Shared memo-key conventions (see repro.backends.signature, the normative
# definition): _COMMUTATIVE canonicalises commutative operand order, and
# signatures pack as ((west << 21) | north) << 4 | gene with _NO_NORTH as
# the arity-1 sentinel — so node ids must stay below _NO_NORTH.  A store
# that passed _MAX_NODES ids is dropped at the end of its call, and a
# single call whose worst case would cross the sentinel is rejected up
# front (_evaluate).
from repro.backends.signature import (
    COMMUTATIVE as _COMMUTATIVE,
    MAX_NODES as _MAX_NODES,
    NO_NORTH as _NO_NORTH,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.genotype import Genotype
    from repro.array.systolic_array import SystolicArray

__all__ = ["NumpyBackend"]

_ARITY2 = tuple(FUNCTION_ARITY[PEFunction(gene)] == 2 for gene in range(N_FUNCTIONS))
_CONST_MAX = int(PEFunction.CONST_MAX)
_IDENTITY_W = int(PEFunction.IDENTITY_W)
_IDENTITY_N = int(PEFunction.IDENTITY_N)

_U8_255 = np.uint8(255)
_U8_1 = np.uint8(1)
_U8_2 = np.uint8(2)
_U8_4 = np.uint8(4)


def _const_max(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    out.fill(255)
    return out


def _identity_w(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.copyto(out, w)
    return out


def _identity_n(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.copyto(out, n)
    return out


def _add_sat(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    # min(w + n, 255) == w + min(n, 255 - w), overflow-free in uint8.
    np.subtract(_U8_255, w, out=out)
    np.minimum(out, n, out=out)
    return np.add(out, w, out=out)


def _sub_abs(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    # |w - n| == max(w, n) - min(w, n), underflow-free in uint8.
    np.maximum(w, n, out=out)
    return np.subtract(out, np.minimum(w, n), out=out)


def _average(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    # (w + n) >> 1 == (w & n) + ((w ^ n) >> 1), carry-free in uint8.
    np.bitwise_xor(w, n, out=out)
    np.right_shift(out, _U8_1, out=out)
    return np.add(out, np.bitwise_and(w, n), out=out)


def _swap_nibbles_w(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    # uint8 shifts drop the bits they push out: (w << 4) | (w >> 4).
    np.left_shift(w, _U8_4, out=out)
    return np.bitwise_or(out, np.right_shift(w, _U8_4), out=out)


def _threshold(w: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    # 255 where w > n else 0: the 0/1 comparison mask, negated in uint8.
    np.greater(w, n, out=out.view(np.bool_))
    return np.negative(out, out=out)


#: The engine's PE kernels by gene: ``kernel(west, north, out)`` writes the
#: function's uint8 plane into ``out`` (which must not overlap either
#: input) and returns it.  Each equals the readable reference kernel of
#: :mod:`repro.array.pe_library` on every input pair
#: (``tests/backends/test_backend_parity.py`` checks all 256x256 of them),
#: without its int16 round-trips.
_KERNELS = tuple(
    kernel
    for _, kernel in sorted({
        PEFunction.CONST_MAX: _const_max,
        PEFunction.IDENTITY_W: _identity_w,
        PEFunction.IDENTITY_N: _identity_n,
        PEFunction.INVERT_W: lambda w, n, out: np.subtract(_U8_255, w, out=out),
        PEFunction.OR: lambda w, n, out: np.bitwise_or(w, n, out=out),
        PEFunction.AND: lambda w, n, out: np.bitwise_and(w, n, out=out),
        PEFunction.XOR: lambda w, n, out: np.bitwise_xor(w, n, out=out),
        PEFunction.SHIFT_R1_W: lambda w, n, out: np.right_shift(w, _U8_1, out=out),
        PEFunction.SHIFT_R2_W: lambda w, n, out: np.right_shift(w, _U8_2, out=out),
        PEFunction.ADD_SAT: _add_sat,
        PEFunction.SUB_ABS: _sub_abs,
        PEFunction.AVERAGE: _average,
        PEFunction.MAX: lambda w, n, out: np.maximum(w, n, out=out),
        PEFunction.MIN: lambda w, n, out: np.minimum(w, n, out=out),
        PEFunction.SWAP_NIBBLES_W: _swap_nibbles_w,
        PEFunction.THRESHOLD: _threshold,
    }.items())
)


#: Planes per pooled slab (fewer when the backend's budget is smaller).
_SLAB_PLANES = 16
#: The process-wide pool of free slabs, by slab shape ``(planes, H, W)``:
#: a store takes its slabs from here and hands them back when it dies,
#: so the next run's planes land on pages the last run already touched.
_FREE_SLABS: Dict[Tuple[int, int, int], List[np.ndarray]] = {}
#: Reentrant, because garbage collection can free a store (and so return
#: its slabs) while its thread is already inside the pool.
_SLAB_LOCK = threading.RLock()


def _take_slab(shape: Tuple[int, int, int]) -> np.ndarray:
    """A free slab of ``shape`` from the pool, or a new one."""
    with _SLAB_LOCK:
        free = _FREE_SLABS.get(shape)
        if free:
            return free.pop()
    return np.empty(shape, dtype=np.uint8)


def _return_slabs(slabs: List[np.ndarray], budget: int) -> None:
    """Pool ``slabs``, keeping at most ``budget`` bytes of free slabs of their shape."""
    keep = budget // slabs[0].nbytes
    with _SLAB_LOCK:
        free = _FREE_SLABS.setdefault(slabs[0].shape, [])
        free.extend(slabs)
        del free[keep:]


def _forget_slabs_in_child() -> None:
    """Give a forked child an empty pool behind a fresh lock.

    A lock another parent thread held at fork time is never released in
    the child, so it is re-initialised in place (the child has one thread).
    """
    _SLAB_LOCK._at_fork_reinit()
    with _SLAB_LOCK:
        _FREE_SLABS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no cover - POSIX only
    os.register_at_fork(after_in_child=_forget_slabs_in_child)


def _immutable(planes: np.ndarray) -> bool:
    """Whether ``planes`` views an immutable ``bytes`` buffer.

    Such an array can never be made writeable, so its values are fixed
    for its lifetime.
    """
    base = planes
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


class _PlaneStore:
    """Persistent hash-cons store for one training-plane set.

    Node ids are non-negative ints; ``values[id]`` is the node's output
    plane, or ``None`` for a node that has been hash-consed but whose
    plane no candidate has demanded yet (``specs[id]`` then holds its
    ``(gene, west, north)`` recipe).  The store is only ever consulted for
    the exact plane array it was built from (``snapshot`` guards against
    in-place mutation; planes over an immutable ``bytes`` buffer cannot be
    mutated and need no snapshot), so a signature hit is guaranteed to
    reproduce the reference computation.

    Materialised node planes live in slots of pooled slabs (see
    :meth:`slot`); the store hands its slabs back to the pool when it
    dies, by whatever route (eviction, the end-of-call release of
    :meth:`NumpyBackend._release_over_budget`, ``clear_cache`` or
    garbage collection of its backend).  Nothing outside the store may
    keep a view of a slot: :meth:`NumpyBackend.process_planes` copies
    store planes before it returns them.
    """

    __slots__ = (
        "planes",
        "snapshot",
        "intern",
        "cand_intern",
        "values",
        "specs",
        "input_ids",
        "const_id",
        "nbytes",
        "fitness",
        "fitness_ref",
        "fitness_ref16",
        "budget",
        "slab_shape",
        "slabs",
        "free_slots",
    )

    def __init__(self, planes: np.ndarray, budget: int) -> None:
        self.planes = planes
        self.snapshot = None if _immutable(planes) else planes.tobytes()
        self.intern: Dict[int, int] = {}
        self.cand_intern: Dict[bytes, int] = {}
        self.values: List[Optional[np.ndarray]] = []
        self.specs: Dict[int, Tuple[int, int, int]] = {}
        # Window-plane input nodes, one per mux selection.
        self.input_ids = []
        for k in range(planes.shape[0]):
            self.input_ids.append(len(self.values))
            self.values.append(planes[k])
        self.const_id = -1  # allocated lazily (most circuits never use CONST_MAX)
        self.nbytes = 0
        # Node-fitness memo: store node id -> SAE total against the
        # reference whose bytes are fitness_ref (fitness_ref16 is that
        # reference widened once to int16).  Node planes are immutable once
        # materialised, so a hit reproduces the reduce: neutral mutations
        # and recurring candidates cost one lookup instead of a reduction.
        self.fitness: Dict[int, int] = {}
        self.fitness_ref: Optional[bytes] = None
        self.fitness_ref16: Optional[np.ndarray] = None
        # A slab never exceeds the backend's budget (but holds one plane).
        self.budget = budget
        h, w = planes.shape[1:]
        self.slab_shape = (max(1, min(_SLAB_PLANES, budget // (h * w))), h, w)
        self.slabs: List[np.ndarray] = []
        self.free_slots: List[np.ndarray] = []  # unused slot views, newest slab

    def __del__(self) -> None:
        if self.slabs:
            _return_slabs(self.slabs, self.budget)

    def slot(self) -> np.ndarray:
        """An unused ``(H, W)`` slot for the next memoised plane."""
        free = self.free_slots
        if not free:
            slab = _take_slab(self.slab_shape)
            self.slabs.append(slab)
            free.extend(slab)  # one view per slot
        return free.pop()

    def matches(self, planes: np.ndarray) -> bool:
        # Identity pins the object (the held reference keeps its id from
        # being recycled); the byte compare catches in-place mutation.
        return self.planes is planes and (
            self.snapshot is None or self.snapshot == planes.tobytes()
        )


class NumpyBackend(EvaluationBackend):
    """Vectorised evaluation engine with memoised genotype lowering.

    Parameters
    ----------
    max_cache_bytes:
        Budget for memoised subcircuit planes per training-plane set;
        a store that outgrows it is dropped at the end of the call, and
        the next call starts a fresh one (correctness is unaffected —
        only the hit rate resets).
    max_stores:
        Number of distinct training-plane sets kept concurrently
        (cascaded evolution re-extracts planes per stage input).
    """

    name = "numpy"

    def __init__(self, max_cache_bytes: int = 32 * 1024 * 1024, max_stores: int = 4) -> None:
        if max_cache_bytes < 1 or max_stores < 1:
            raise ValueError("cache budgets must be positive")
        self.max_cache_bytes = int(max_cache_bytes)
        self.max_stores = int(max_stores)
        self._stores: "OrderedDict[int, _PlaneStore]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def clear_cache(self) -> None:
        """Drop every memoised plane store."""
        self._stores.clear()

    def _store_for(self, planes: np.ndarray) -> _PlaneStore:
        key = id(planes)
        store = self._stores.get(key)
        if store is not None and store.matches(planes):
            self._stores.move_to_end(key)
            return store
        store = _PlaneStore(planes, self.max_cache_bytes)
        self._stores[key] = store
        self._stores.move_to_end(key)
        while len(self._stores) > self.max_stores:
            self._stores.popitem(last=False)
        return store

    def _release_over_budget(self, planes: np.ndarray) -> None:
        """Drop the store of ``planes`` if this call took it over a budget.

        The one place a store is dropped for its size, at the end of every
        evaluation call: once its memoised planes pass ``max_cache_bytes``,
        or its node ids pass ``_MAX_NODES`` (read at call time).  So every
        store kept between calls is within both budgets, which the
        signature-space guard in :meth:`_evaluate` relies on.  Dropping
        is free for correctness: the next call on these planes starts a
        fresh store, whose entries are recomputed on demand, and the
        dropped store hands its slabs back to the pool.
        """
        key = id(planes)
        store = self._stores.get(key)
        if store is not None and (
            store.nbytes > self.max_cache_bytes or len(store.values) > _MAX_NODES
        ):
            del self._stores[key]

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def process_planes(
        self, array: "SystolicArray", planes: np.ndarray, genotype: "Genotype"
    ) -> np.ndarray:
        out, owned = self._evaluate(array, planes, [genotype])
        if not owned:
            # Copy before the release below can pool the slab under it.
            out = out.copy()
        self._release_over_budget(planes)
        return out

    def evaluate_population(
        self,
        array: "SystolicArray",
        planes: np.ndarray,
        genotypes: Sequence["Genotype"],
        reference: np.ndarray,
    ) -> np.ndarray:
        """Fused population fitness: hash-consed evaluation + memoised reduce.

        Candidates share the plane store's hash-consed subprograms, and
        instead of materialising a ``(B, H, W)`` output stack the
        aggregated absolute error of each candidate's output *node* is
        computed (and memoised per store and reference) directly — a
        candidate whose mutations were all neutral (dead PEs, unconsumed
        operands) resolves to an already-scored node and costs a dict
        lookup.  Values are bit-exact against evaluating
        and reducing candidates one at a time; the fault-draw contract (one
        plane's words per faulty position per candidate, in candidate
        order) is unchanged.

        The fused reduce widens pixels to int16, which is exact only for
        uint8 references (the hardware pixel format).
        :meth:`~repro.array.systolic_array.SystolicArray.evaluate_population`
        accepts any reference dtype, so a wider one takes the base
        per-candidate path, whose ``sae_batch`` reduce matches ``sae``'s
        int64 arithmetic, keeping the backends interchangeable for every
        input.
        """
        reference = np.asarray(reference)
        if reference.dtype != np.uint8:
            return super().evaluate_population(array, planes, genotypes, reference)
        fits, _ = self._evaluate(array, planes, genotypes, reduce_ref=reference)
        self._release_over_budget(planes)
        return fits

    def _evaluate(
        self,
        array: "SystolicArray",
        planes: np.ndarray,
        genotypes: Sequence["Genotype"],
        reduce_ref: Optional[np.ndarray] = None,
    ):
        rows, cols = array.geometry.rows, array.geometry.cols
        population = Population.of(genotypes)
        keys, outputs = population.keys, population.outputs
        n = len(keys)
        h, w = planes.shape[1:]

        # Fault draws happen up front, one (n, H, W) block per position in
        # row-major order whose rows are the candidates' planes in
        # candidate order — exactly what the reference sweep consumes, so
        # the per-position random streams stay aligned whether or not the
        # position is live.
        fault_planes: Dict[Tuple[int, int], np.ndarray] = {
            position: array.draw_fault_planes(position, n, h, w)
            for position in array.faulty_positions
        }

        store = self._store_for(planes)
        # The packed signatures give node ids 21 bits; _release_over_budget
        # bounds a kept store, and this guard bounds what one call can add,
        # so an id can never collide with the _NO_NORTH sentinel.
        n_pes = rows * cols
        if len(store.values) + n * n_pes >= _NO_NORTH:
            raise ValueError(
                f"batch of {n} candidates could exhaust the numpy backend's "
                f"signature space ({_NO_NORTH - len(store.values)} node ids "
                "left); split the batch into smaller chunks"
            )
        intern = store.intern
        values = store.values
        input_ids = store.input_ids
        kernels = _KERNELS
        arity2 = _ARITY2
        commutative = _COMMUTATIVE

        reduce_mode = reduce_ref is not None
        fits: Optional[np.ndarray] = None
        fit_memo = store.fitness
        fit_memo_get = fit_memo.get
        # Reduce-mode misses: one (node id or None, output plane) row per
        # *distinct* demanded node, scored in one vectorised pass after the
        # candidate loop; fit_rows maps candidates onto rows, so siblings
        # resolving to the same node share a single reduce.
        fit_pending: List[Tuple[Optional[int], np.ndarray]] = []
        fit_rows: List[Tuple[int, int]] = []
        fit_pending_rows: Dict[int, int] = {}

        def pend_fitness(b: int, vid: int) -> None:
            if vid >= 0:
                fit = fit_memo_get(vid)
                if fit is not None:
                    fits[b] = fit
                    return
                row = fit_pending_rows.get(vid)
                if row is None:
                    row = len(fit_pending)
                    fit_pending.append((vid, force(vid)))
                    fit_pending_rows[vid] = row
            else:
                # Fault-tainted output: embeds this call's draws, reduced
                # directly and never memoised.
                row = len(fit_pending)
                fit_pending.append((None, force(vid)))
            fit_rows.append((b, row))

        if reduce_mode:
            reference = np.asarray(reduce_ref)
            ref_bytes = reference.tobytes()
            if ref_bytes != store.fitness_ref:
                # New reference for this plane store: totals scored against
                # the old one are unrelated.
                fit_memo.clear()
                store.fitness_ref = ref_bytes
                store.fitness_ref16 = reference.astype(np.int16)
            fits = np.empty(n, dtype=np.float64)

        # Per-call overlay for fault-tainted nodes: their signatures embed
        # this call's random draws, so they must not persist in the store.
        # Overlay ids are negative; `vid >= 0` selects the store.
        call_values: Dict[int, Optional[np.ndarray]] = {}
        call_specs: Dict[int, Tuple[int, int, int]] = {}
        next_call_id = -1
        specs = store.specs
        slot = store.slot
        empty = np.empty
        plane_shape = (h, w)
        plane_nbytes = h * w

        def force(root: int) -> np.ndarray:
            """Materialise node ``root``, evaluating its demanded cone.

            The walk below only records *recipes* (hash-consed
            ``(gene, west, north)`` specs); planes are computed here, on
            demand from the selected output — so a subcircuit whose value
            is never consumed (e.g. the north operand of an arity-1 PE)
            costs nothing, and anything computed once is memoised for
            every later candidate and call.
            """
            value = values[root] if root >= 0 else call_values[root]
            if value is not None:
                return value
            # Fast path: both operands already materialised (the common
            # case — offspring mostly force nodes whose inputs were
            # computed for the parent or an earlier sibling).
            gene, wid, nid = specs[root] if root >= 0 else call_specs[root]
            west = values[wid] if wid >= 0 else call_values[wid]
            if west is not None:
                north = (
                    west
                    if nid == _NO_NORTH
                    else (values[nid] if nid >= 0 else call_values[nid])
                )
                if north is not None:
                    if root >= 0:
                        value = values[root] = kernels[gene](west, north, slot())
                        store.nbytes += plane_nbytes
                        del specs[root]
                    else:
                        value = call_values[root] = kernels[gene](
                            west, north, empty(plane_shape, np.uint8)
                        )
                    return value
            stack = [root]
            while stack:
                vid = stack[-1]
                if vid >= 0:
                    if values[vid] is not None:
                        stack.pop()
                        continue
                    gene, wid, nid = specs[vid]
                else:
                    if call_values[vid] is not None:
                        stack.pop()
                        continue
                    gene, wid, nid = call_specs[vid]
                west = values[wid] if wid >= 0 else call_values[wid]
                if west is None:
                    stack.append(wid)
                    continue
                if nid == _NO_NORTH:
                    north = west
                else:
                    north = values[nid] if nid >= 0 else call_values[nid]
                    if north is None:
                        stack.append(nid)
                        continue
                if vid >= 0:
                    values[vid] = kernels[gene](west, north, slot())
                    store.nbytes += plane_nbytes
                    del specs[vid]
                else:
                    # Fault-tainted planes may be handed to the caller, so
                    # they never live in a slab.
                    call_values[vid] = kernels[gene](
                        west, north, empty(plane_shape, np.uint8)
                    )
                stack.pop()
            value = values[root] if root >= 0 else call_values[root]
            return value

        single_value: np.ndarray = planes[0]  # overwritten below (n >= 1)
        single_owned = False
        fault_free = not fault_planes
        intern_get = intern.get
        cand_intern = store.cand_intern
        cand_intern_get = cand_intern.get

        # Reference lowering for prefix resume: the walk is deterministic
        # and hash-consed, so two candidates whose consumed genes agree on
        # rows 0..r-1 reach *identical* node ids after those rows.  The
        # first fully walked fault-free candidate of the call donates
        # per-row state snapshots; later candidates (mutated siblings
        # sharing most of their genes) resume from the snapshot after their
        # common prefix instead of re-walking it.  Never used on a faulty
        # array, where the walk embeds per-candidate draw ids.
        ref_key: Optional[bytes] = None
        ref_depth = -1
        ref_east: List[int] = []
        ref_north: List[List[int]] = []
        # Each key is the candidate's gene bytes (function genes row-major,
        # then west and north muxes) plus its output row: one byte string
        # that is the memo key and makes prefix comparisons C-speed slices.
        west0 = n_pes
        north0, north1 = n_pes + rows, n_pes + rows + cols

        for b, key in enumerate(keys):
            out_row = outputs[b]
            # Whole-candidate memo: under low mutation rates the same
            # offspring genotype recurs across generations, so the walk
            # below is skipped entirely on a repeat.  (Faulty arrays never
            # take this path — their outputs embed per-call random draws.)
            if fault_free:
                vid = cand_intern_get(key)
                if vid is not None:
                    if reduce_mode:
                        pend_fitness(b, vid)
                    else:
                        single_value = force(vid)
                        single_owned = False
                    continue
            start_row = 0
            walk = True
            north_ids: Optional[List[int]] = None
            if ref_key is not None and key[north0:north1] == ref_key[north0:north1]:
                match = 0
                while match <= out_row:
                    base = match * cols
                    if (
                        key[west0 + match] != ref_key[west0 + match]
                        or key[base : base + cols] != ref_key[base : base + cols]
                    ):
                        break
                    match += 1
                if match > out_row and out_row <= ref_depth:
                    # Every consumed gene matches the reference: the output
                    # node is the reference's east output of out_row.
                    vid = ref_east[out_row]
                    walk = False
                else:
                    start_row = match if match <= ref_depth else ref_depth + 1
                    if start_row:
                        north_ids = ref_north[start_row - 1].copy()
            if walk:
                record = fault_free and ref_key is None
                if north_ids is None:
                    north_ids = [input_ids[key[north0 + c]] for c in range(cols)]
                # Dead-PE elimination: rows below the selected output row
                # cannot reach the output PE, so the sweep stops at out_row.
                for r in range(start_row, out_row + 1):
                    vid = input_ids[key[west0 + r]]
                    base = r * cols
                    for c in range(cols):
                        if not fault_free and (r, c) in fault_planes:
                            next_call_id -= 1
                            call_values[next_call_id] = fault_planes[(r, c)][b]
                            vid = next_call_id
                            north_ids[c] = vid
                            continue
                        gene = key[base + c]
                        if arity2[gene]:
                            nid = north_ids[c]
                            if vid >= 0 and nid >= 0:
                                # Signatures pack into one int (ids < 2**21 by
                                # the node budget): faster to hash than tuples.
                                if nid < vid and commutative[gene]:
                                    sig = ((nid << 21) | vid) << 4 | gene
                                else:
                                    sig = ((vid << 21) | nid) << 4 | gene
                                cached = intern_get(sig)
                                if cached is None:
                                    cached = len(values)
                                    values.append(None)
                                    specs[cached] = (gene, vid, nid)
                                    intern[sig] = cached
                                vid = cached
                            else:
                                next_call_id -= 1
                                call_values[next_call_id] = None
                                call_specs[next_call_id] = (gene, vid, nid)
                                vid = next_call_id
                        elif gene == _IDENTITY_W:
                            pass  # output aliases the west input: vid unchanged
                        elif gene == _IDENTITY_N:
                            vid = north_ids[c]
                            continue  # north_ids[c] already holds vid
                        elif gene == _CONST_MAX:
                            if store.const_id < 0:
                                store.const_id = len(values)
                                values.append(np.full((h, w), 255, dtype=np.uint8))
                            vid = store.const_id
                        elif vid >= 0:  # remaining genes are arity 1 on west
                            sig = ((vid << 21) | _NO_NORTH) << 4 | gene
                            cached = intern_get(sig)
                            if cached is None:
                                cached = len(values)
                                values.append(None)
                                specs[cached] = (gene, vid, _NO_NORTH)
                                intern[sig] = cached
                            vid = cached
                        else:
                            next_call_id -= 1
                            call_values[next_call_id] = None
                            call_specs[next_call_id] = (gene, vid, _NO_NORTH)
                            vid = next_call_id
                        north_ids[c] = vid
                    # vid now holds east[r]; after the final row this is the
                    # selected output node (r == out_row, c == cols - 1).
                    if record:
                        ref_east.append(vid)
                        ref_north.append(north_ids.copy())
                if record:
                    ref_key = key
                    ref_depth = out_row
            if fault_free:
                cand_intern[key] = vid
            if reduce_mode:
                # Pure store nodes (vid >= 0 — even on a faulty array, when
                # no fault reached the selected output) are memoisable and
                # deduplicated; fault-tainted outputs get their own row.
                pend_fitness(b, vid)
            elif vid >= 0:
                # Store nodes are shared across calls (and input/const nodes
                # alias the caller's planes), so the caller gets a copy.
                single_value = force(vid)
                single_owned = False
            else:
                # Fault-tainted nodes are per-call scratch with no surviving
                # references once this call returns: hand the array over.
                single_value = force(vid)
                single_owned = True

        if reduce_mode:
            if fit_pending:
                # One vectorised reduce over the distinct missed nodes: uint8
                # differences fit int16 exactly and accumulate in int64 —
                # the same arithmetic as sae()/sae_batch bit for bit (kept
                # in-place here because the reference is pre-widened once
                # per store and reference, as store.fitness_ref16).
                diffs = np.empty((len(fit_pending), h, w), dtype=np.int16)
                for row_index, (_, plane) in enumerate(fit_pending):
                    diffs[row_index] = plane
                diffs -= store.fitness_ref16
                np.abs(diffs, out=diffs)
                totals = diffs.sum(axis=(1, 2), dtype=np.int64).tolist()
                for (vid, _), total in zip(fit_pending, totals):
                    if vid is not None:
                        fit_memo[vid] = total
                for b, row in fit_rows:
                    fits[b] = totals[row]
            return fits, True
        return single_value, single_owned
