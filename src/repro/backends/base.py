"""The :class:`EvaluationBackend` protocol and its string-keyed registry.

The functional simulator separates *what* a candidate circuit computes
(:class:`~repro.array.systolic_array.SystolicArray`: geometry, genotype
validation, the PE-level fault state) from *how* it is computed — the
evaluation backend.  Backends are looked up by name, mirroring the
strategy registries of :mod:`repro.api.registry` (this layer sits below
``repro.api``, so it keeps its own registry instead of importing the
API one):

>>> from repro.backends import BACKENDS
>>> sorted(BACKENDS.names())
['compiled', 'numpy', 'reference']

Two engines ship built in:

``reference``
    The readable per-PE sweep (one whole-plane NumPy op per PE), the
    semantics every other backend must reproduce bit for bit.
``numpy``
    A vectorised engine that lowers each genotype to a plane-level
    pipeline with hash-consed common-subexpression caching and
    dead-PE elimination (see :mod:`repro.backends.numpy_engine`).
    Also registered as ``compiled``, so stored configs that name that
    retired engine still load.

Swapping backends can change wall-clock time only, never results —
the parity suite in ``tests/backends/`` enforces bit-exactness over
every PE function, processing mode and fault pattern.

Registering a third-party engine is one decorator:

>>> from repro.backends import EvaluationBackend, register_backend, resolve_backend
>>> @register_backend("mine")
... class MyBackend(EvaluationBackend):
...     name = "mine"
...     def process_planes(self, array, planes, genotype):
...         return resolve_backend("reference").process_planes(array, planes, genotype)
>>> "mine" in BACKENDS
True

``process_planes`` is all an engine must implement: the base
``evaluate_population`` scores a population through it, bit-exact
against the built-in engines:

>>> import numpy as np
>>> from repro.array import Genotype, SystolicArray
>>> from repro.array.window import extract_windows
>>> image = np.arange(64, dtype=np.uint8).reshape(8, 8)
>>> planes = extract_windows(image)
>>> genotypes = [Genotype.identity(), Genotype.random(rng=1)]
>>> fits = SystolicArray(backend="mine").evaluate_population(planes, genotypes, image)
>>> float(fits[0])
0.0
>>> bool((fits == SystolicArray().evaluate_population(planes, genotypes, image)).all())
True
>>> BACKENDS.unregister("mine")  # tidy up for the doctest runner
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (array -> backends)
    from repro.array.genotype import Genotype
    from repro.array.systolic_array import SystolicArray

__all__ = [
    "EvaluationBackend",
    "UnknownBackendError",
    "BackendRegistry",
    "BACKENDS",
    "register_backend",
    "resolve_backend",
]


class EvaluationBackend:
    """Evaluation engine contract: one candidate's planes, or a population's fitness.

    Two entry points, both fed *validated* inputs (the owning
    :class:`~repro.array.systolic_array.SystolicArray` has already checked
    plane shape/dtype and genotype geometry):

    * :meth:`process_planes` evaluates one candidate and returns its
      output plane — the only method an engine must implement;
    * :meth:`evaluate_population` returns every candidate's fitness
      against a reference; the default derives it from
      :meth:`process_planes`, engines override it with a fused path.

    Both must reproduce the reference semantics bit for bit:

    * healthy PEs apply their configured function as an element-wise
      uint8 operation;
    * every evaluation of a candidate consumes exactly ``ceil(H*W/4)``
      ``next_uint32`` words from each faulty position's own generator
      (``array.fault_rng(position)``), in candidate order, whether or not
      the position feeds the selected output — what one
      ``integers(0, 256, size=(H, W), dtype=np.uint8)`` call draws.  A
      population path may draw all its candidates' planes as one block
      with :meth:`SystolicArray.draw_fault_planes
      <repro.array.systolic_array.SystolicArray.draw_fault_planes>`,
      which leaves the generator in the same state.  The per-position
      streams are part of the observable behaviour fault experiments
      replay;
    * returned planes are freshly owned (never views of the input
      planes).

    Backends may cache derived data (the ``numpy`` engine memoises
    subcircuit outputs) but must never let caching change results.
    Instances are created per :class:`SystolicArray`, so per-array caches
    need no locking.
    """

    #: Registry name of the backend (subclasses override).
    name: str = "abstract"

    def process_planes(
        self, array: "SystolicArray", planes: np.ndarray, genotype: "Genotype"
    ) -> np.ndarray:
        """Evaluate one candidate on ``(9, H, W)`` planes; returns ``(H, W)`` uint8."""
        raise NotImplementedError

    def evaluate_population(
        self,
        array: "SystolicArray",
        planes: np.ndarray,
        genotypes: Sequence["Genotype"],
        reference: np.ndarray,
    ) -> np.ndarray:
        """Fitness of a candidate population; returns ``(B,)`` float64.

        The population entry point fuses evaluation and the fitness
        reduction: each candidate's aggregated absolute error (the paper's
        aggregated-MAE fitness, :func:`repro.imaging.metrics.sae`) against
        ``reference`` is computed inside the backend, so engines can share
        work *across* the population and skip materialising per-candidate
        output planes entirely.

        The default stacks :meth:`process_planes` per candidate, in
        candidate order, and reduces the stack with
        :func:`~repro.imaging.metrics.sae_batch` — always bit-exact,
        fault streams included.  Returned values are integral-valued
        float64 and must equal ``sae(output_b, reference)`` for every
        candidate ``b``.
        """
        from repro.imaging.metrics import sae_batch

        outputs = np.stack([self.process_planes(array, planes, g) for g in genotypes])
        return sae_batch(outputs, reference).astype(np.float64)

    def clear_cache(self) -> None:
        """Drop any cached derived data (a no-op for stateless backends)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class UnknownBackendError(LookupError):
    """Raised for a backend name that is not registered.

    Mirrors :class:`repro.api.registry.UnknownStrategyError`: the message
    lists the registered names so a typo in ``PlatformConfig(backend=...)``
    or ``--backend`` is immediately actionable.
    """

    def __init__(self, name: str, available: List[str]) -> None:
        choices = ", ".join(sorted(available)) if available else "(none registered)"
        super().__init__(f"unknown evaluation backend {name!r}; available: {choices}")
        self.name = name
        self.available = sorted(available)


class BackendRegistry:
    """String-keyed registry of evaluation-backend classes.

    Same contract as the Session-API registries
    (:class:`repro.api.registry.Registry`): duplicate names raise unless
    ``replace=True``, unknown names raise a ``LookupError`` listing the
    alternatives, and ``register`` doubles as a decorator.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}

    def register(self, name: str, obj: Any = None, *, replace: bool = False):
        """Register a backend class (or instance factory) under ``name``."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"backend name must be a non-empty string, got {name!r}")

        def add(value: Any) -> Any:
            if not replace and name in self._entries:
                raise ValueError(f"evaluation backend {name!r} is already registered")
            self._entries[name] = value
            return value

        if obj is None:
            return add
        return add(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (tests and plugin teardown)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> Any:
        """Look up ``name``; raises :class:`UnknownBackendError` when absent."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownBackendError(name, list(self._entries)) from None

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BackendRegistry({len(self._entries)} entries)"


#: The process-wide evaluation-backend registry.
BACKENDS = BackendRegistry()


def register_backend(name: str, obj: Any = None, *, replace: bool = False):
    """Register an :class:`EvaluationBackend` in :data:`BACKENDS`.

    Usable as a decorator (``@register_backend("mine")``) or a plain call.
    """
    return BACKENDS.register(name, obj, replace=replace)


def resolve_backend(spec: Union[str, EvaluationBackend, type, None]) -> EvaluationBackend:
    """Resolve a backend selector into a ready instance.

    Accepts a registered name (``"reference"``/``"numpy"``), an
    :class:`EvaluationBackend` instance (returned as-is), a backend class
    (instantiated), or ``None`` (the ``reference`` default).

    >>> from repro.backends import resolve_backend
    >>> resolve_backend(None).name
    'reference'
    >>> resolve_backend("numpy").name
    'numpy'
    """
    if spec is None:
        spec = "reference"
    if isinstance(spec, str):
        spec = BACKENDS.get(spec)
    if isinstance(spec, type):
        spec = spec()
    if not isinstance(spec, EvaluationBackend):
        raise TypeError(
            f"backend must be a registered name, an EvaluationBackend instance "
            f"or class, got {type(spec)!r}"
        )
    return spec
