"""The staged fitness pipeline: one evaluation path for every consumer.

Every fitness request of the reproduction — the (1+λ) ES
(:mod:`repro.ea.strategy` via :mod:`repro.ea.fitness`), the platform
drivers (:mod:`repro.core.evolution`, :mod:`repro.core.two_level_ea`)
and, through them, both evaluation backends — flows through a
:class:`FitnessPipeline`.  The drivers' one generation step hands each
array its whole share of the offspring population in a single
:meth:`FitnessPipeline.evaluate_population` call; a single-candidate
:meth:`FitnessPipeline.evaluate` serves the reporting-grade parent
evaluations.  The pipeline runs three stages, each of which either
*serves* a candidate exactly or *passes it down*; whatever reaches the
end is evaluated in full over the whole frame, as the paper's fitness
unit does:

1. **Fault gate.**  Evaluations on a fault-tainted array embed per-call
   random draws (the fault-RNG contract: one ``(H, W)`` block per faulty
   position per candidate, in candidate order), so they bypass every
   cache and go straight to the backend.  Bypasses are *counted*, not
   silent — the telemetry surfaces on
   :attr:`repro.core.evolution.PlatformEvolutionResult.fitness_cache_stats`.
2. **In-process cache tier.**  A per-pipeline
   :class:`~repro.backends.fitness_cache.FitnessCache` of
   :data:`CACHE_ENTRIES` entries, evicted oldest first, keyed by the
   candidate's gene bytes
   (:attr:`repro.array.genotype.Population.keys`) and cleared whenever
   the (planes, reference) pair changes.  Serving a hit is
   value-transparent: entries only ever hold the exact value a full
   evaluation produced.
3. **Persistent cache tier** (opt-in, the ``fitness_cache`` knob).  A
   :class:`~repro.backends.fitness_cache.PersistentFitnessCache` shared
   across runs and workers, keyed by
   :func:`repro.backends.signature.fitness_key` — gene bytes, geometry
   and the *content digests* of the training planes and reference, so a
   key can never alias across tasks.  The fixed part of the key is
   hashed once per scope.  Newly computed fitnesses are *staged* on the
   tier, where every lookup in the process sees them at once; they reach
   disk when the tier is published (once at the end of a driver run, or
   at process exit).

Fitness trajectories are pinned by the golden digests in
``tests/core/test_golden_trajectories.py``, and the cache-parity gate
(``tests/core/test_cache_parity.py``) holds runs with the persistent
tier on, cold or warm, to the plain trajectories.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.array.genotype import Population
from repro.backends.fitness_cache import FitnessCache, PersistentFitnessCache
from repro.backends.signature import array_digest, fitness_key_prefix

__all__ = ["FitnessPipeline", "resolve_persistent_cache"]

#: Entry budget of the in-process cache tier.
CACHE_ENTRIES = 1 << 16


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
    persistent:
        Optional persistent tier (``None``, a path, or a shared
        :class:`PersistentFitnessCache` instance).
    """

    def __init__(
        self,
        array,
        *,
        persistent: Union[None, str, os.PathLike, PersistentFitnessCache] = None,
    ) -> None:
        self.array = array
        self.cache = FitnessCache(CACHE_ENTRIES)
        self.persistent = resolve_persistent_cache(persistent)
        # Telemetry beyond the cache tier's own hit/miss/bypass counters.
        self.persistent_hits = 0
        self.persistent_misses = 0
        self.full_evaluations = 0
        # Scope state: the (planes identity, reference bytes) pair entries
        # are valid under, plus the lazily computed persistent-key prefix
        # (geometry and the scope's content digests, hashed once).
        self._scope: Optional[Tuple[int, bytes]] = None
        self._key_prefix = None

    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop scope-dependent state (retargeted planes or reference)."""
        self.cache.clear()
        self._scope = None
        self._key_prefix = None

    def stats(self) -> Dict[str, int]:
        """The pipeline's telemetry counters as one flat dict."""
        counters = self.cache.stats.as_dict()
        counters.update(
            persistent_hits=self.persistent_hits,
            persistent_misses=self.persistent_misses,
            full_evaluations=self.full_evaluations,
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

    def _scope_key_prefix(self, planes: np.ndarray, reference: np.ndarray):
        """The persistent-key hasher of the current scope, before the genes."""
        if self._key_prefix is None:
            geometry = self.array.geometry
            self._key_prefix = fitness_key_prefix(
                geometry.rows, geometry.cols, array_digest(planes), array_digest(reference)
            )
        return self._key_prefix

    # ------------------------------------------------------------------ #
    def evaluate(self, planes: np.ndarray, genotype, reference: np.ndarray) -> float:
        """Exact fitness of one candidate through the staged pipeline."""
        return self.evaluate_population(planes, [genotype], reference)[0]

    def evaluate_population(
        self,
        planes: np.ndarray,
        genotypes: Sequence,
        reference: np.ndarray,
    ) -> List[float]:
        """Exact fitness of each candidate, in order, through the staged pipeline.

        ``genotypes`` is any sequence of genotypes; the drivers pass their
        generation as one :class:`~repro.array.genotype.Population`, whose
        keys every tier reads.
        """
        if not isinstance(genotypes, Population):
            genotypes = list(genotypes)
        if not genotypes:
            return []
        population = Population.of(genotypes)
        array = self.array
        reference = np.asarray(reference)
        if array.n_faults:
            # Stage 1: fault-tainted evaluations consume per-position RNG
            # streams and must run in full, uncached — but counted.
            self.cache.bypass(len(population))
            self.full_evaluations += len(population)
            values = array.evaluate_population(planes, population, reference)
            return np.asarray(values, dtype=np.float64).tolist()

        self._enter_scope(planes, reference)
        cache = self.cache
        keys = population.keys
        values: List[Optional[float]] = [None] * len(keys)
        misses: List[int] = []
        pending: Dict[bytes, int] = {}
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
                values[index] = value

        # Stage 3: the persistent cross-run tier.  Each key is the scope's
        # prefix completed by the candidate's key bytes.
        staged: Dict[str, float] = {}
        if misses and self.persistent is not None:
            prefix = self._scope_key_prefix(planes, reference)
            persist_keys = {}
            for index in misses:
                digest = prefix.copy()
                digest.update(keys[index])
                persist_keys[index] = digest.hexdigest()
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
                    values[index] = float(value)
            misses = still_missing
        else:
            persist_keys = {}

        # Whatever no tier served is evaluated in full.
        if misses:
            computed = array.evaluate_population(
                planes,
                population if len(misses) == len(keys) else population.take(misses),
                reference,
            )
            self.full_evaluations += len(misses)
            for index, value in zip(misses, np.asarray(computed, dtype=np.float64).tolist()):
                cache.put(keys[index], value)
                values[index] = value
                if persist_keys:
                    staged[persist_keys[index]] = value

        if staged:
            self.persistent.stage(staged)

        # Duplicates resolve through the value their first occurrence got.
        return [
            value if value is not None else values[pending[key]]
            for key, value in zip(keys, values)
        ]
