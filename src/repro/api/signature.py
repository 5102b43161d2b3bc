"""Content-addressed signatures over the Session-API configs.

The service layer dedupes work by *content*: two campaign runs whose
resolved configs, runner and derived seed are identical will compute the
identical :class:`~repro.api.artifact.RunArtifact` (the determinism
guarantee the executors are held to), so re-evolving the second one is
pure waste.  This module derives the key that makes the observation
actionable: a SHA-256 signature over the canonical JSON form of the
run's resolved inputs.

Signatures are platform- and process-independent (canonical JSON, sorted
keys, no salted ``hash``) — the same property the campaign seed
derivation relies on — so a signature computed by a submitting client
matches the one computed by a worker on another machine.

>>> from repro.api.signature import content_signature, run_signature
>>> content_signature({"b": 1, "a": 2}) == content_signature({"a": 2, "b": 1})
True
>>> from repro.api import EvolutionConfig, PlatformConfig, TaskSpec
>>> sig = run_signature(
...     runner="evolve", seed=7,
...     platform=PlatformConfig(seed=1), evolution=EvolutionConfig(seed=2),
...     task=TaskSpec(seed=3),
... )
>>> len(sig), sig == run_signature(
...     runner="evolve", seed=7,
...     platform=PlatformConfig(seed=1), evolution=EvolutionConfig(seed=2),
...     task=TaskSpec(seed=3),
... )
(64, True)
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional

__all__ = ["canonical_json", "content_signature", "run_signature"]

#: Evolution-config knobs that are *value-transparent*: they change how
#: fitnesses are computed (the persistent cache tier — see
#: :mod:`repro.ea.pipeline`), never what they are, so two runs differing
#: only in these knobs produce identical artifacts and may share one
#: dedupe entry.  Excluded from :func:`run_signature`.  The evolution
#: config no longer carries the removed generation-step knobs, so run
#: signatures computed while it did differ from today's: such dedupe-cache
#: entries miss once and are recomputed (campaign resume is keyed by run
#: id, not signature, and is unaffected).
_VALUE_TRANSPARENT_EVOLUTION_KNOBS = frozenset({"fitness_cache"})


def canonical_json(payload: Any) -> str:
    """The canonical JSON form signatures are computed over.

    Sorted keys and compact separators make the text independent of dict
    insertion order and formatting; ``default=str`` keeps the function
    total over exotic-but-stringifiable values (the same convention the
    campaign run-id digest uses).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def content_signature(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _as_dict(config: Any) -> Optional[Mapping[str, Any]]:
    if config is None:
        return None
    to_dict = getattr(config, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if isinstance(config, Mapping):
        return dict(config)
    raise TypeError(f"cannot derive a signature from {type(config)!r}")


def run_signature(
    *,
    runner: str,
    seed: int,
    platform: Any,
    evolution: Any,
    task: Any,
    healing: Any = None,
    params: Optional[Mapping[str, Any]] = None,
) -> str:
    """The content-addressed dedupe key of one fully resolved run.

    Covers exactly what determines a run's results — the resolved configs
    (after axis overrides and seed derivation), the runner, its params
    and the derived run seed — and deliberately *excludes* campaign
    identity (name, run id, run index, the override labels): two
    campaigns that resolve to the same work share the same signature,
    which is what makes cross-submission dedupe possible.  Value-transparent
    evolution knobs (:data:`_VALUE_TRANSPARENT_EVOLUTION_KNOBS`) are
    likewise excluded: a run with the persistent fitness cache enabled
    computes the identical artifact, so it deduplicates against
    the plain run.
    """
    evolution_dict = _as_dict(evolution)
    if evolution_dict is not None:
        evolution_dict = {
            key: value
            for key, value in dict(evolution_dict).items()
            if key not in _VALUE_TRANSPARENT_EVOLUTION_KNOBS
        }
    payload = {
        "runner": runner,
        "seed": int(seed),
        "platform": _as_dict(platform),
        "evolution": evolution_dict,
        "task": _as_dict(task),
        "healing": _as_dict(healing),
        "params": dict(params or {}),
    }
    return content_signature(payload)
