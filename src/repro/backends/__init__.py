"""Pluggable evaluation backends for the systolic-array simulator.

The array model (:mod:`repro.array`) defines *what* a candidate circuit
computes; this package defines *how* it is computed.  Backends implement
the :class:`EvaluationBackend` protocol and register by name in
:data:`BACKENDS` (a registry mirroring :mod:`repro.api.registry`), so the
engine is one switch everywhere a platform is built:

>>> from repro.api import PlatformConfig
>>> PlatformConfig(backend="numpy").backend
'numpy'

or, at the array level:

>>> import numpy as np
>>> from repro.array import Genotype, SystolicArray
>>> array = SystolicArray(backend="numpy")
>>> image = np.arange(64, dtype=np.uint8).reshape(8, 8)
>>> out = array.process(image, Genotype.identity())
>>> bool((out == image).all())
True

Built-in engines:

* ``reference`` (:mod:`repro.backends.reference`) — the readable per-PE
  sweep, the behavioural ground truth;
* ``numpy`` (:mod:`repro.backends.numpy_engine`) — vectorised lowering
  with memoised subcircuits and dead-PE elimination; bit-exact against
  ``reference`` and >=5x faster on the evolution workload.

``compiled`` is registered as an alias of ``numpy`` so stored configs,
campaign specs and ``--backend compiled`` still load.

See ``docs/architecture.md`` (backend section) and
``docs/performance.md`` for when and how to switch.
"""

from repro.backends.base import (
    BACKENDS,
    BackendRegistry,
    EvaluationBackend,
    UnknownBackendError,
    register_backend,
    resolve_backend,
)
from repro.backends.fitness_cache import CacheStats, FitnessCache, PersistentFitnessCache
from repro.backends.numpy_engine import NumpyBackend
from repro.backends.reference import ReferenceBackend

# Built-in registrations live here (not in the engine modules) so that
# `python -m doctest src/repro/backends/<engine>.py` can execute those
# files standalone without re-registering a name the package import
# already claimed.
if "reference" not in BACKENDS:
    BACKENDS.register("reference", ReferenceBackend)
if "numpy" not in BACKENDS:
    BACKENDS.register("numpy", NumpyBackend)
if "compiled" not in BACKENDS:
    BACKENDS.register("compiled", NumpyBackend)

__all__ = [
    "BACKENDS",
    "BackendRegistry",
    "EvaluationBackend",
    "UnknownBackendError",
    "register_backend",
    "resolve_backend",
    "ReferenceBackend",
    "NumpyBackend",
    "CacheStats",
    "FitnessCache",
    "PersistentFitnessCache",
]
