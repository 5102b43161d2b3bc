"""Declarative, validated configuration objects for the Session API.

Every knob a consumer can turn is captured in one of four frozen
dataclasses — :class:`PlatformConfig`, :class:`EvolutionConfig`,
:class:`TaskSpec` and :class:`SelfHealingConfig` — each of which

* validates its fields on construction (a bad config fails at build time,
  not generations into a run);
* round-trips through plain dictionaries and JSON
  (``Config.from_dict(config.to_dict()) == config``), which is what the
  :class:`~repro.api.artifact.RunArtifact` provenance record and any
  future service/RPC layer serialise;
* knows how to ``build()`` the imperative object it describes, so the
  class-based entry points keep working unchanged underneath.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, ClassVar, Dict, FrozenSet, Mapping, Optional, Type, TypeVar, Union

__all__ = [
    "PlatformConfig",
    "EvolutionConfig",
    "TaskSpec",
    "SelfHealingConfig",
]

C = TypeVar("C", bound="_ConfigBase")


@dataclass(frozen=True)
class _ConfigBase:
    """Shared dict/JSON plumbing of the config dataclasses."""

    #: Keys of removed fields that :meth:`from_dict` still accepts (and
    #: drops with a :class:`DeprecationWarning`), so configs serialised
    #: before the removal keep loading.
    _LEGACY_KEYS: ClassVar[FrozenSet[str]] = frozenset()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view suitable for JSON serialisation."""
        data: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Mapping):
                value = dict(value)
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls: Type[C], data: Dict[str, Any]) -> C:
        """Rebuild a config from :meth:`to_dict` output (extra keys rejected).

        Keys in ``_LEGACY_KEYS`` — the removed knobs ``batched``,
        ``population_batching`` and ``racing`` of :class:`EvolutionConfig`
        (and ``population_batching`` of the red-team config) — are dropped
        with one :class:`DeprecationWarning`.
        """
        legacy = sorted(set(data) & cls._LEGACY_KEYS)
        if legacy:
            warnings.warn(
                f"{cls.__name__} ignores removed field(s): {', '.join(legacy)}",
                DeprecationWarning,
                stacklevel=2,
            )
            data = {key: value for key, value in data.items() if key not in legacy}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"{cls.__name__} does not accept field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def to_json(self, **kwargs: Any) -> str:
        """JSON view of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls: Type[C], text: str) -> C:
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def replace(self: C, **changes: Any) -> C:
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def signature(self) -> str:
        """Content-addressed SHA-256 signature of this config.

        Two configs with equal fields share a signature regardless of how
        they were constructed — the building block of the service layer's
        run-dedupe key (see :mod:`repro.api.signature`).

        >>> from repro.api import PlatformConfig
        >>> PlatformConfig(seed=1).signature() == PlatformConfig(seed=1).signature()
        True
        >>> PlatformConfig(seed=1).signature() != PlatformConfig(seed=2).signature()
        True
        """
        from repro.api.signature import content_signature

        return content_signature(self.to_dict())


@dataclass(frozen=True)
class PlatformConfig(_ConfigBase):
    """Declarative description of an :class:`~repro.core.platform.EvolvableHardwarePlatform`.

    Parameters
    ----------
    n_arrays:
        Number of Array Control Blocks (paper: 3).
    rows, cols:
        Per-array geometry in PEs (paper: 4x4).
    fitness_voter_threshold:
        Similarity threshold of the TMR fitness voter.
    seed:
        Platform RNG seed (fault targeting, random candidates).
    backend:
        Evaluation backend of every array, by registry name
        (``"reference"`` or ``"numpy"``; see :mod:`repro.backends`).
        Backends are bit-exact against each other — this switch changes
        the simulation's wall-clock time only, never its results — so
        campaigns can sweep or pin it freely (``platform.backend`` axis,
        CLI ``--backend``).

    Examples
    --------
    >>> from repro.api import PlatformConfig
    >>> config = PlatformConfig(n_arrays=3, seed=1, backend="numpy")
    >>> PlatformConfig.from_dict(config.to_dict()) == config
    True
    >>> platform = config.build()
    >>> platform.n_arrays, platform.backend_name
    (3, 'numpy')
    >>> PlatformConfig(backend="no-such-engine")
    Traceback (most recent call last):
        ...
    repro.backends.base.UnknownBackendError: unknown evaluation backend \
'no-such-engine'; available: compiled, numpy, reference
    """

    n_arrays: int = 3
    rows: int = 4
    cols: int = 4
    fitness_voter_threshold: float = 0.0
    seed: Optional[int] = None
    backend: str = "reference"

    def __post_init__(self) -> None:
        if self.n_arrays < 1:
            raise ValueError(f"n_arrays must be >= 1, got {self.n_arrays}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array geometry must be at least 1x1, got {self.rows}x{self.cols}")
        if self.fitness_voter_threshold < 0:
            raise ValueError("fitness_voter_threshold must be non-negative")
        # Fail at config-build time, not generations into a run: the name
        # must exist in the backend registry.
        from repro.backends import BACKENDS

        BACKENDS.get(self.backend)

    def build(self):
        """Instantiate the platform this config describes."""
        from repro.array.systolic_array import ArrayGeometry
        from repro.core.platform import EvolvableHardwarePlatform

        return EvolvableHardwarePlatform(
            n_arrays=self.n_arrays,
            geometry=ArrayGeometry(rows=self.rows, cols=self.cols),
            fitness_voter_threshold=self.fitness_voter_threshold,
            seed=self.seed,
            backend=self.backend,
        )


@dataclass(frozen=True)
class EvolutionConfig(_ConfigBase):
    """Declarative description of one evolution run.

    Parameters
    ----------
    strategy:
        Name of a registered evolution driver (``parallel``,
        ``independent``, ``cascaded``, ``imitation``, ``two_level``, or a
        plugin name).
    n_generations:
        Generation budget of the run.
    n_offspring:
        Offspring per generation (paper: 9).
    mutation_rate:
        Mutation rate ``k``: genes changed per offspring.
    seed:
        Seed of the EA's random stream.
    target_fitness:
        Optional early-stop threshold.
    accept_equal:
        Whether equal-fitness offspring replace the parent (neutral drift).
    fitness_cache:
        Opt-in persistent cross-run fitness cache: ``None`` (off, the
        default) or a directory path.  Evaluated candidates on fault-free
        arrays are looked up / published by their canonical signature
        (gene bytes + geometry + content digests of the training planes
        and reference; see :func:`repro.backends.signature.fitness_key`),
        so re-runs of overlapping campaigns skip already-known fitnesses.
        Value-transparent: cached values are exactly what a full
        evaluation would produce, on every backend.  Sweepable as the
        ``evolution.fitness_cache`` campaign axis.
    scenario:
        Optional fault-scenario timeline the run evolves under: the name
        of a registered scenario (``"seu-storm"``, ``"single-seu"``, ...;
        see :data:`repro.scenarios.SCENARIOS`) or an inline
        :class:`~repro.scenarios.spec.FaultScenario` dict.  The timeline
        compiles to a deterministic per-generation event schedule from
        the platform's fabric seed, and its events (SEU arrivals, bursts,
        permanent damage, periodic scrubs) fire mid-evolution at the
        start of each generation — byte-identically across backends and
        executors.  Names are validated against the registry and inline
        dicts against the scenario spec at config-build time; the field
        JSON round-trips, so it can be swept or pinned as the
        ``evolution.scenario`` campaign axis (or field-wise through the
        ``scenario.*`` axes, see
        :class:`~repro.runtime.campaign.CampaignSpec`).
    options:
        Strategy-specific options (e.g. ``{"n_arrays": 1}`` for parallel
        evolution, ``{"fitness_mode": "merged", "schedule": "interleaved"}``
        for cascaded, ``{"low_mutation_rate": 1}`` for the two-level EA).
        Values must be JSON-serialisable.  The mapping is defensively
        copied and exposed read-only, so a config's recorded provenance
        always matches what actually ran (note: ``options`` also makes
        ``EvolutionConfig`` unhashable, unlike the other configs).

    Examples
    --------
    >>> from repro.api import EvolutionConfig
    >>> config = EvolutionConfig(strategy="cascaded", options={"n_stages": 2})
    >>> config.options["n_stages"]
    2
    >>> EvolutionConfig.from_json(config.to_json()) == config
    True
    >>> config.replace(mutation_rate=5).mutation_rate
    5
    """

    strategy: str = "parallel"
    n_generations: int = 100
    n_offspring: int = 9
    mutation_rate: int = 3
    seed: Optional[int] = None
    target_fitness: Optional[float] = None
    accept_equal: bool = True
    fitness_cache: Optional[str] = None
    scenario: Union[str, Mapping[str, Any], None] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    _LEGACY_KEYS: ClassVar[FrozenSet[str]] = frozenset(
        {"batched", "population_batching", "racing"}
    )

    def __post_init__(self) -> None:
        if not self.strategy:
            raise ValueError("strategy must be a non-empty name")
        if self.fitness_cache is not None and not str(self.fitness_cache):
            raise ValueError("fitness_cache must be None or a non-empty directory path")
        if self.n_generations < 1:
            raise ValueError(f"n_generations must be >= 1, got {self.n_generations}")
        if self.n_offspring < 1:
            raise ValueError(f"n_offspring must be >= 1, got {self.n_offspring}")
        if self.mutation_rate < 1:
            raise ValueError(f"mutation_rate must be >= 1, got {self.mutation_rate}")
        if not isinstance(self.options, Mapping):
            raise TypeError("options must be a mapping of strategy-specific settings")
        if self.scenario is not None:
            # Fail at config-build time: names must exist in the scenario
            # registry, inline dicts must be valid FaultScenario specs.
            from repro.scenarios import normalise_scenario_field

            object.__setattr__(
                self, "scenario", normalise_scenario_field(self.scenario)
            )
        # Defensive copy behind a read-only view: a frozen config must not be
        # mutable through a shared or retained options dict.
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))


@dataclass(frozen=True)
class TaskSpec(_ConfigBase):
    """Declarative description of an imaging task (a training/reference pair).

    Parameters
    ----------
    task:
        Name of a registered imaging task (``salt_pepper_denoise``,
        ``gaussian_denoise``, ``edge_detect``, ``smoothing``, ``identity``,
        or a plugin name).
    image_side:
        Side of the square synthetic image in pixels.
    noise_level:
        Noise density (salt-and-pepper) or relative sigma (Gaussian).
    image_kind:
        Synthetic clean-image generator (see
        :func:`repro.imaging.images.make_test_image`).
    seed:
        Seed controlling image synthesis and noise.

    Examples
    --------
    >>> from repro.api import TaskSpec
    >>> pair = TaskSpec(task="identity", image_side=8, seed=1).build()
    >>> pair.training.shape
    (8, 8)
    >>> bool((pair.training == pair.reference).all())
    True
    """

    task: str = "salt_pepper_denoise"
    image_side: int = 32
    noise_level: float = 0.05
    image_kind: str = "composite"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.task:
            raise ValueError("task must be a non-empty name")
        if self.image_side < 8:
            raise ValueError(f"image_side must be >= 8, got {self.image_side}")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level must be in [0, 1], got {self.noise_level}")

    def build(self):
        """Materialise the :class:`~repro.imaging.images.ImagePair` for this task."""
        from repro.api.registry import TASKS

        return TASKS.get(self.task)(self)


@dataclass(frozen=True)
class SelfHealingConfig(_ConfigBase):
    """Declarative description of a self-healing strategy (§V).

    Parameters
    ----------
    strategy:
        Name of a registered self-healing strategy (``cascaded`` or
        ``tmr``, or a plugin name).
    tolerance:
        Allowed fitness deviation before a fault is declared
        (cascaded strategy).
    imitation_generations:
        Generation budget of a recovery evolution.
    imitation_target_fitness:
        Early-stop threshold of the imitation recovery.
    paste_threshold:
        TMR only: imitation fitness above which the recovered
        configuration is pasted onto every array.
    reference_image_key:
        Cascaded only: flash key of the stored reference image; when
        present, recovery re-evolves against it instead of imitating.
    scenario:
        Optional fault-scenario timeline the monitoring loop runs
        against (a registered name or an inline
        :class:`~repro.scenarios.spec.FaultScenario` dict) — the fault
        environment of the §V.A/§V.B scrub-classify-evolve lifecycle.
        Consumed by scenario-driven workloads such as the
        ``scenario-sweep`` experiment's lifecycle runner, which applies
        the timeline between healing cycles; validated and JSON
        round-tripped exactly like ``EvolutionConfig.scenario``.
    n_offspring, mutation_rate, seed:
        EA parameters of the recovery evolution.
    """

    strategy: str = "cascaded"
    tolerance: float = 0.0
    imitation_generations: int = 200
    imitation_target_fitness: Optional[float] = 100.0
    paste_threshold: float = 100.0
    reference_image_key: Optional[str] = None
    scenario: Union[str, Mapping[str, Any], None] = None
    n_offspring: int = 9
    mutation_rate: int = 3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.strategy:
            raise ValueError("strategy must be a non-empty name")
        if self.imitation_generations < 1:
            raise ValueError("imitation_generations must be >= 1")
        if self.n_offspring < 1 or self.mutation_rate < 1:
            raise ValueError("n_offspring and mutation_rate must be >= 1")
        if self.scenario is not None:
            from repro.scenarios import normalise_scenario_field

            object.__setattr__(
                self, "scenario", normalise_scenario_field(self.scenario)
            )

    def build(self, platform, calibration_image, calibration_reference):
        """Instantiate the configured strategy bound to ``platform``.

        ``calibration_image``/``calibration_reference`` are the periodic
        calibration pattern (cascaded strategy) or the pattern image and its
        expected output (TMR strategy).
        """
        from repro.api.registry import SELF_HEALERS

        factory = SELF_HEALERS.get(self.strategy)
        return factory(platform, self, calibration_image, calibration_reference)
