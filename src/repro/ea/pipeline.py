"""The staged fitness pipeline: one evaluation path for every consumer.

Every fitness request of the reproduction — the (1+λ) ES
(:mod:`repro.ea.strategy` via :mod:`repro.ea.fitness`), the platform
drivers (:mod:`repro.core.evolution`, :mod:`repro.core.two_level_ea`)
and, through them, all three evaluation backends — flows through a
:class:`FitnessPipeline`.  The drivers' one generation step hands each
array its whole share of the offspring population in a single
:meth:`FitnessPipeline.evaluate_population` call; a single-candidate
:meth:`FitnessPipeline.evaluate` serves the reporting-grade parent
evaluations.  The pipeline runs up to four stages, each of
which either *serves* a candidate exactly or *passes it down*:

1. **Fault gate.**  Evaluations on a fault-tainted array embed per-call
   random draws (the fault-RNG contract: one ``(H, W)`` block per faulty
   position per candidate, in candidate order), so they bypass every
   cache and go straight to the backend.  Bypasses are *counted*, not
   silent — the telemetry surfaces on
   :attr:`repro.core.evolution.PlatformEvolutionResult.fitness_cache_stats`.
2. **In-process cache tier.**  A per-pipeline
   :class:`~repro.backends.fitness_cache.FitnessCache` keyed by the
   canonical candidate signature
   (:func:`repro.backends.signature.candidate_key`), scoped to the
   current (planes, reference) pair.  Serving a hit is
   value-transparent: entries only ever hold the exact value a full
   evaluation produced.
3. **Persistent cache tier** (opt-in, the ``fitness_cache`` knob).  A
   :class:`~repro.backends.fitness_cache.PersistentFitnessCache` shared
   across runs and workers, keyed by
   :func:`repro.backends.signature.fitness_key` — gene bytes, geometry
   and the *content digests* of the training planes and reference, so a
   key can never alias across tasks.  Newly computed fitnesses are
   published back.
4. **Racing early-rejection** (opt-in, the ``racing`` knob).  Offspring
   are evaluated block-by-block over a deterministic row partition of
   the pixel windows.  SAE is a sum of non-negative per-pixel terms, so
   the running partial SAE is an *exact lower bound* on the full SAE:
   as soon as it exceeds the acceptance threshold (the parent's
   fitness), the candidate provably cannot be accepted — neither
   strictly better nor equal — and the remaining blocks are skipped.
   Survivors complete every block, and the sum of the per-block SAEs
   *is* their exact full fitness (integer arithmetic, no rounding), so
   selection and the accepted-parent trajectory are bit-identical to
   exhaustive evaluation; rejected candidates report their lower bound,
   which can only ever replace other non-accepted values.  Racing is
   exact, not statistical — and it never engages on a faulty array,
   where partial passes would desynchronise the fault-RNG streams.

With both knobs off the pipeline reduces to stages 1–2.  Fitness
trajectories are pinned by the golden digests in
``tests/core/test_golden_trajectories.py``, and the racing-parity gate
holds runs with either knob on to the knobs-off trajectories.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.fitness_cache import FitnessCache, PersistentFitnessCache
from repro.backends.signature import array_digest, candidate_key, fitness_key

__all__ = ["FitnessPipeline", "resolve_persistent_cache"]

#: Row fractions of the racing partition: rejection checks run after 1/8
#: and 1/2 of the pixel rows, so a hopeless candidate pays 1/8 of a full
#: evaluation and a merely-bad one at most 1/2.  Three blocks keep the
#: numpy engine's per-plane-set store budget (full planes + blocks)
#: within its default ``max_stores``.
_RACING_SPLITS = (8, 2)

#: Images shorter than this many pixel rows are not worth racing: the
#: per-block call overhead outweighs any skipped arithmetic.
_MIN_RACING_ROWS = 8


def resolve_persistent_cache(
    cache: Union[None, str, os.PathLike, PersistentFitnessCache],
) -> Optional[PersistentFitnessCache]:
    """Coerce a ``fitness_cache`` knob value into a persistent tier.

    Accepts ``None`` (tier disabled), a directory path, or an already
    constructed :class:`PersistentFitnessCache` (shared between the
    contexts of one driver, so concurrent lookups see one in-memory view).
    """
    if cache is None or isinstance(cache, PersistentFitnessCache):
        return cache
    return PersistentFitnessCache(cache)


class FitnessPipeline:
    """Staged candidate evaluation for one array.

    Parameters
    ----------
    array:
        The :class:`~repro.array.systolic_array.SystolicArray` every
        backend call is issued against.
    max_entries:
        Entry budget of the in-process cache tier.
    persistent:
        Optional persistent tier (``None``, a path, or a shared
        :class:`PersistentFitnessCache` instance).
    racing:
        Enable exact-bound early rejection (see the module docstring).
    """

    def __init__(
        self,
        array,
        *,
        max_entries: int = 1 << 16,
        persistent: Union[None, str, os.PathLike, PersistentFitnessCache] = None,
        racing: bool = False,
    ) -> None:
        self.array = array
        self.cache = FitnessCache(max_entries)
        self.persistent = resolve_persistent_cache(persistent)
        self.racing = bool(racing)
        # Telemetry beyond the cache tier's own hit/miss/bypass counters.
        self.persistent_hits = 0
        self.persistent_misses = 0
        self.full_evaluations = 0
        self.partial_evaluations = 0
        self.racing_rejected = 0
        # Scope state: the (planes identity, reference bytes) pair entries
        # are valid under, plus lazily computed content digests for the
        # persistent tier and the cached racing block slices.
        self._scope: Optional[Tuple[int, bytes]] = None
        self._digests: Optional[Tuple[str, str]] = None
        self._blocks: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        # Best exact fitness observed in the current scope: a safe racing
        # threshold when the caller has none (it can never undercut the
        # parent's fitness, which is the running minimum of the exact
        # values this pipeline returned).
        self._best_seen = math.inf

    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop scope-dependent state (retargeted planes or reference)."""
        self.cache.clear()
        self._scope = None
        self._digests = None
        self._blocks = None
        self._best_seen = math.inf

    def stats(self) -> Dict[str, int]:
        """The pipeline's telemetry counters as one flat dict."""
        counters = self.cache.stats.as_dict()
        counters.update(
            persistent_hits=self.persistent_hits,
            persistent_misses=self.persistent_misses,
            full_evaluations=self.full_evaluations,
            partial_evaluations=self.partial_evaluations,
            racing_rejected=self.racing_rejected,
        )
        return counters

    def _enter_scope(self, planes: np.ndarray, reference: np.ndarray) -> None:
        """Bind cache entries to the current (planes, reference) pair.

        Planes identity is trusted within a scope (the owning context
        re-extracts planes — and calls :meth:`invalidate` — on retarget);
        the reference is compared by value, like the pre-1.9 context
        cache did, so an imitation evaluator refreshing its master output
        in place can never serve stale entries.
        """
        scope = (id(planes), reference.tobytes())
        if scope != self._scope:
            self.invalidate()
            self._scope = scope

    def _scope_digests(self, planes: np.ndarray, reference: np.ndarray) -> Tuple[str, str]:
        """Content digests of the current scope (persistent-tier keying)."""
        if self._digests is None:
            self._digests = (array_digest(planes), array_digest(reference))
        return self._digests

    def _racing_blocks(
        self, planes: np.ndarray, reference: np.ndarray
    ) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
        """The deterministic row partition racing evaluates block by block.

        Slices are cached per scope so the backends see stable plane
        objects (their per-plane-set stores key on identity) and the
        partition is a pure function of the image height.
        """
        if self._blocks is not None:
            return self._blocks
        height = int(planes.shape[1])
        if height < _MIN_RACING_ROWS:
            return None
        bounds: List[Tuple[int, int]] = []
        start = 0
        for divisor in _RACING_SPLITS:
            stop = height // divisor
            if stop <= start:
                continue
            bounds.append((start, stop))
            start = stop
        bounds.append((start, height))
        self._blocks = [
            (planes[:, lo:hi, :], reference[lo:hi]) for lo, hi in bounds
        ]
        return self._blocks

    def _observe(self, value: float) -> float:
        if value < self._best_seen:
            self._best_seen = value
        return value

    # ------------------------------------------------------------------ #
    def evaluate(self, planes: np.ndarray, genotype, reference: np.ndarray) -> float:
        """Exact fitness of one candidate through the staged pipeline.

        Never races: single-candidate calls measure circuits (initial
        parents, recovery checks, reporting), so they must return the exact
        value even on a racing-enabled pipeline.  An infinite threshold
        disables the racing stage while the cache tiers stay live.
        """
        values = self.evaluate_population(planes, [genotype], reference, threshold=math.inf)
        return values[0]

    def evaluate_population(
        self,
        planes: np.ndarray,
        genotypes: Sequence,
        reference: np.ndarray,
        threshold: Optional[float] = None,
    ) -> List[float]:
        """Fitness of each candidate, in order, through the staged pipeline.

        ``threshold`` is the racing acceptance bar — the caller's current
        parent fitness.  When racing is enabled and no threshold is given,
        the best exact fitness this pipeline has returned in the current
        scope is used; it can never undercut the parent (the parent's
        fitness *is* that running minimum), so rejection stays exact.
        Values for racing-rejected candidates are their partial-SAE lower
        bounds — provably above the threshold, hence never accepted and
        never displacing an accepted candidate.
        """
        genotypes = list(genotypes)
        if not genotypes:
            return []
        array = self.array
        reference = np.asarray(reference)
        if array.n_faults:
            # Stage 1: fault-tainted evaluations consume per-position RNG
            # streams and must run in full, uncached — but counted.
            self.cache.bypass(len(genotypes))
            self.full_evaluations += len(genotypes)
            values = array.evaluate_population(planes, genotypes, reference)
            return [float(value) for value in values]

        self._enter_scope(planes, reference)
        cache = self.cache
        keys = [candidate_key(genotype) for genotype in genotypes]
        values: List[Optional[float]] = [None] * len(genotypes)
        misses: List[int] = []
        pending: Dict[Tuple, int] = {}
        for index, key in enumerate(keys):
            if key in pending:
                # Duplicate within the batch: served from its first
                # occurrence, exactly as a sequential pass would hit the
                # entry that occurrence had just filled.
                cache.stats.hits += 1
                continue
            value = cache.get(key)
            if value is None:
                pending[key] = index
                misses.append(index)
            else:
                values[index] = self._observe(value)

        # Stage 3: the persistent cross-run tier.
        publish: Dict[str, float] = {}
        if misses and self.persistent is not None:
            geometry = array.geometry
            planes_digest, reference_digest = self._scope_digests(planes, reference)
            persist_keys = {
                index: fitness_key(
                    geometry.rows, geometry.cols, planes_digest, reference_digest,
                    genotypes[index],
                )
                for index in misses
            }
            found = self.persistent.lookup(persist_keys.values())
            self.persistent_hits += len(found)
            self.persistent_misses += len(persist_keys) - len(found)
            still_missing: List[int] = []
            for index in misses:
                value = found.get(persist_keys[index])
                if value is None:
                    still_missing.append(index)
                else:
                    cache.put(keys[index], float(value))
                    values[index] = self._observe(float(value))
            misses = still_missing
        else:
            persist_keys = {}

        # Stages 2/4: compute the remaining candidates, racing if enabled.
        if misses:
            if threshold is None:
                threshold = self._best_seen
            blocks = (
                self._racing_blocks(planes, reference)
                if self.racing and math.isfinite(threshold)
                else None
            )
            if blocks is None:
                computed = array.evaluate_population(
                    planes, [genotypes[index] for index in misses], reference
                )
                self.full_evaluations += len(misses)
                for index, value in zip(misses, computed):
                    value = float(value)
                    cache.put(keys[index], value)
                    values[index] = self._observe(value)
                    if persist_keys:
                        publish[persist_keys[index]] = value
            else:
                alive = list(misses)
                totals = {index: 0 for index in alive}
                for block_index, (block_planes, block_reference) in enumerate(blocks):
                    partials = array.evaluate_population(
                        block_planes,
                        [genotypes[index] for index in alive],
                        block_reference,
                    )
                    for index, partial in zip(alive, partials):
                        totals[index] += int(partial)
                    if block_index == len(blocks) - 1:
                        break
                    survivors = [
                        index for index in alive if totals[index] <= threshold
                    ]
                    for index in alive:
                        if totals[index] > threshold:
                            # Exact lower bound already beats the threshold:
                            # the candidate can neither win nor tie.  Its
                            # reported value is the bound itself.
                            values[index] = float(totals[index])
                            self.racing_rejected += 1
                            self.partial_evaluations += 1
                    alive = survivors
                    if not alive:
                        break
                for index in alive:
                    # Survivors completed every block: the block sums are
                    # disjoint row ranges of the image, so their total is
                    # the exact full-image SAE.
                    value = float(totals[index])
                    cache.put(keys[index], value)
                    values[index] = self._observe(value)
                    if persist_keys:
                        publish[persist_keys[index]] = value
                self.full_evaluations += len(alive)

        if publish:
            self.persistent.publish(publish)

        # Duplicates resolve through the entry their first occurrence
        # filled; racing-rejected first occurrences propagate their bound.
        out: List[float] = []
        for index, key in enumerate(keys):
            value = values[index]
            if value is None:
                first = pending.get(key)
                value = values[first] if first is not None else cache.peek(key)
            out.append(float(value))
        return out
