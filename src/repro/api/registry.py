"""String-keyed strategy registries for the unified Session API.

The platform is explicitly scalable — "multiple arrays can be directly
built up by assembling the required number of these modules" (§III.B) —
and the same applies to its workloads: evolution strategies, self-healing
strategies, imaging tasks and experiment runners are all looked up *by
name* so that new ones (including third-party plugins) can be added
without touching any dispatch code.

Four registries are provided:

``driver``
    Evolution strategies (the four §IV.B modes plus the §VI.B two-level
    EA).  Entries are strategy adapter classes with ``build(platform,
    config)`` and ``run(driver, task, config, **runtime)`` methods; see
    :mod:`repro.api.builtins`.
``self_healing``
    Self-healing strategies (§V).  Entries are factories
    ``(platform, config, calibration_image, calibration_reference) ->
    strategy object``.
``task``
    Imaging tasks.  Entries are builders ``(TaskSpec) -> ImagePair``.
``experiment``
    Paper-figure experiment runners; entries are
    :class:`repro.api.experiment.ExperimentSpec` objects the CLI uses to
    build its subcommands.

Registering a new strategy is one decorator — here against a scratch
registry (real plugins use ``register(kind, name)`` against the four
process-wide registries the same way):

>>> from repro.api.registry import Registry, UnknownStrategyError
>>> demo = Registry("demo strategy")
>>> @demo.register("mine")
... def build_mine():
...     return 42
>>> demo.get("mine")()
42
>>> sorted(demo.names())
['mine']
>>> demo.get("typo")
Traceback (most recent call last):
    ...
repro.api.registry.UnknownStrategyError: unknown demo strategy 'typo'; \
available: mine

Duplicate names are rejected unless explicitly replaced, so plugins
cannot silently shadow each other:

>>> demo.register("mine", build_mine)
Traceback (most recent call last):
    ...
ValueError: demo strategy 'mine' is already registered
>>> demo.register("mine", build_mine, replace=True) is build_mine
True
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List

__all__ = [
    "UnknownStrategyError",
    "Registry",
    "register",
    "get_registry",
    "DRIVERS",
    "SELF_HEALERS",
    "TASKS",
    "EXPERIMENTS",
]


class UnknownStrategyError(LookupError):
    """Raised when a name is not present in a registry.

    The message lists the registered names, so a typo in a config file or
    CLI flag is immediately actionable.
    """

    def __init__(self, kind: str, name: str, available: List[str]) -> None:
        choices = ", ".join(sorted(available)) if available else "(none registered)"
        super().__init__(f"unknown {kind} {name!r}; available: {choices}")
        self.kind = kind
        self.name = name
        self.available = sorted(available)


class Registry:
    """A named mapping from strategy names to implementations."""

    #: Raised by :meth:`get` for an unknown name (subclasses may narrow it).
    error = UnknownStrategyError

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    def register(self, name: str, obj: Any = None, *, replace: bool = False):
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Parameters
        ----------
        name:
            Registry key (non-empty string).
        obj:
            The implementation.  When omitted, returns a decorator.
        replace:
            Allow overwriting an existing entry (default: a duplicate name
            raises ``ValueError`` so plugins cannot silently shadow each
            other).
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

        def add(value: Any) -> Any:
            if not replace and name in self._entries:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._entries[name] = value
            return value

        if obj is None:
            return add
        return add(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (mostly useful for tests and plugin teardown)."""
        self._entries.pop(name, None)

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Any:
        """Look up ``name``; raises :attr:`error` (an :class:`UnknownStrategyError`) when absent."""
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(self.kind, name, list(self._entries)) from None

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
        return f"{type(self).__name__}({self.kind!r}, {len(self._entries)} entries)"


#: Evolution-driver strategies (parallel, independent, cascaded, imitation, two_level).
DRIVERS = Registry("evolution driver")
#: Self-healing strategies (cascaded, tmr).
SELF_HEALERS = Registry("self-healing strategy")
#: Imaging-task builders (salt_pepper_denoise, edge_detect, ...).
TASKS = Registry("imaging task")
#: Experiment runners backing the CLI subcommands.
EXPERIMENTS = Registry("experiment")

_KINDS: Dict[str, Registry] = {
    "driver": DRIVERS,
    "self_healing": SELF_HEALERS,
    "task": TASKS,
    "experiment": EXPERIMENTS,
}


def get_registry(kind: str) -> Registry:
    """The registry for ``kind`` (``driver``/``self_healing``/``task``/``experiment``)."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise UnknownStrategyError("registry kind", kind, list(_KINDS)) from None


def register(kind: str, name: str, obj: Any = None, *, replace: bool = False):
    """Register an implementation in the ``kind`` registry.

    Usable as a decorator (``@register("driver", "parallel")``) or as a
    plain call (``register("task", "mine", builder)``).
    """
    return get_registry(kind).register(name, obj, replace=replace)
