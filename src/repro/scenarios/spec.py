"""Declarative fault-scenario timelines.

The paper's self-healing evaluation (§V.A/§V.B) is not "inject one fault,
then recover": SEUs keep *arriving* while the platform scrubs, classifies
and re-evolves.  A :class:`FaultScenario` captures that timeline
declaratively — Poisson SEU arrival rates, burst events, permanent-damage
onsets, creeping degradation and a periodic scrubbing cadence — in a
frozen, JSON-round-tripping spec, exactly like the
:mod:`repro.api.config` dataclasses it composes with
(``EvolutionConfig.scenario``, ``SelfHealingConfig.scenario``, the
``scenario.*`` campaign axes and the ``--scenario`` CLI flag all carry
one of these, by built-in name or as an inline dict).

A scenario is pure *description*; nothing here draws random numbers.
:func:`repro.scenarios.schedule.compile_schedule` turns a scenario into a
deterministic per-generation event schedule from a tagged seed stream,
and :class:`repro.scenarios.runner.ScenarioRunner` applies that schedule
to a platform mid-evolution.

Examples
--------
>>> from repro.scenarios import FaultScenario, SCENARIOS
>>> storm = SCENARIOS.get("seu-storm")
>>> FaultScenario.from_json(storm.to_json()) == storm
True
>>> sorted(SCENARIOS.names())[:3]
['creeping-permanent', 'mixed-burst', 'quiet']
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api.config import _ConfigBase
from repro.api.registry import Registry

__all__ = [
    "FaultScenario",
    "SCENARIOS",
    "register_scenario",
    "resolve_scenario",
    "normalise_scenario_field",
    "scenario_from_cli_arg",
    "HAND_WRITTEN_SCENARIOS",
]


def _normalise_events(value: Any, label: str) -> Tuple[Tuple[int, int], ...]:
    """Validate and canonicalise a ``((generation, count), ...)`` field.

    Accepts any sequence of 2-sequences (tuples after construction, lists
    after a JSON round trip) and returns a generation-sorted tuple of
    ``(int, int)`` pairs, so equal timelines compare equal regardless of
    how they were written down.
    """
    try:
        pairs = [(int(generation), int(count)) for generation, count in value]
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{label} must be a sequence of (generation, count) pairs, got {value!r}"
        ) from exc
    for generation, count in pairs:
        if generation < 0:
            raise ValueError(f"{label} generations must be >= 0, got {generation}")
        if count < 1:
            raise ValueError(f"{label} counts must be >= 1, got {count}")
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class FaultScenario(_ConfigBase):
    """One declarative fault timeline.

    Parameters
    ----------
    name:
        Identity label recorded in schedules, artifacts and campaign
        overrides.
    seu_rate:
        Poisson arrival rate of SEUs, in expected upsets per generation
        across the whole fabric (the §II transient-fault environment).
    lpd_rate:
        Poisson arrival rate of *permanent* damage per generation —
        accumulating degradation (aging / high-energy particles).
    seu_bursts:
        ``((generation, count), ...)`` one-off SEU storms: ``count``
        extra upsets land at the start of ``generation``.
    lpd_onsets:
        ``((generation, count), ...)`` permanent-damage onsets.
    scrub_period:
        Periodic scrubbing cadence: a whole-fabric scrub fires at the
        start of every generation ``g`` with ``g % scrub_period == 0``
        (``g > 0``).  ``0`` disables background scrubbing.
    seed:
        Optional explicit seed of the compiled event schedule.  When
        ``None`` (the default) the schedule derives from the platform's
        fabric seed under the scenario stream tag, so one session seed
        reproduces the whole timeline (the PR 4 tagged-stream contract).
    """

    name: str = "quiet"
    seu_rate: float = 0.0
    lpd_rate: float = 0.0
    seu_bursts: Tuple[Tuple[int, int], ...] = ()
    lpd_onsets: Tuple[Tuple[int, int], ...] = ()
    scrub_period: int = 0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be a non-empty string")
        if self.seu_rate < 0 or self.lpd_rate < 0:
            raise ValueError("scenario arrival rates must be non-negative")
        if self.scrub_period < 0:
            raise ValueError(f"scrub_period must be >= 0, got {self.scrub_period}")
        object.__setattr__(
            self, "seu_bursts", _normalise_events(self.seu_bursts, "seu_bursts")
        )
        object.__setattr__(
            self, "lpd_onsets", _normalise_events(self.lpd_onsets, "lpd_onsets")
        )

    @property
    def is_quiet(self) -> bool:
        """Whether this scenario can never produce an event."""
        return (
            self.seu_rate == 0
            and self.lpd_rate == 0
            and not self.seu_bursts
            and not self.lpd_onsets
            and self.scrub_period == 0
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view; event tuples become lists for JSON friendliness."""
        data = super().to_dict()
        data["seu_bursts"] = [list(pair) for pair in self.seu_bursts]
        data["lpd_onsets"] = [list(pair) for pair in self.lpd_onsets]
        return data

    def copy(self) -> "FaultScenario":
        """Return ``self`` — scenarios are frozen, so no copy is needed.

        Exists so a scenario can serve as a genotype of the adversarial
        search (:mod:`repro.scenarios.search`), whose (1+λ) strategy
        copies its final parent into the result.
        """
        return self


#: Registry of built-in (and plugin) fault scenarios, keyed by name.
SCENARIOS = Registry("fault scenario")


def register_scenario(name: str, scenario: Optional[FaultScenario] = None, *,
                      replace: bool = False):
    """Register a scenario; usable directly or as a decorator."""
    return SCENARIOS.register(name, scenario, replace=replace)


#: The hand-written scenario family (and the ``scenario-sweep`` default
#: sweep set).  Each reproduces one §V.A/§V.B régime.  The full built-in
#: set — :data:`repro.scenarios.BUILTIN_SCENARIOS` — additionally contains
#: the frozen red-team worst cases of :mod:`repro.scenarios.frozen`.
HAND_WRITTEN_SCENARIOS: Tuple[str, ...] = (
    "single-seu",
    "seu-storm",
    "creeping-permanent",
    "scrub-race",
    "mixed-burst",
)

register_scenario("quiet", FaultScenario(name="quiet"))
register_scenario(
    # The classic textbook case: one transient upset, repaired by the next
    # periodic scrub (§V.A steps f-h classify it as transient).
    "single-seu",
    FaultScenario(name="single-seu", seu_bursts=((2, 1),), scrub_period=8),
)
register_scenario(
    # Sustained SEU pressure plus one storm burst: scrubbing keeps up only
    # between bursts, so faults are routinely present *during* generations.
    "seu-storm",
    FaultScenario(name="seu-storm", seu_rate=0.6, seu_bursts=((4, 6),), scrub_period=6),
)
register_scenario(
    # Accumulating permanent damage that scrubbing cannot remove — the
    # régime where only evolutionary repair helps (§V.A step i).
    "creeping-permanent",
    FaultScenario(name="creeping-permanent", lpd_rate=0.08, scrub_period=8),
)
register_scenario(
    # Arrival rate faster than the scrub cadence repairs: the race between
    # upsets and the scrubber the paper's background motivates.
    "scrub-race",
    FaultScenario(name="scrub-race", seu_rate=1.2, scrub_period=2),
)
register_scenario(
    # Everything at once: background SEUs, one storm, one permanent onset
    # and creeping degradation under a periodic scrub.
    "mixed-burst",
    FaultScenario(
        name="mixed-burst",
        seu_rate=0.25,
        lpd_rate=0.03,
        seu_bursts=((3, 3),),
        lpd_onsets=((6, 1),),
        scrub_period=5,
    ),
)


def resolve_scenario(
    value: Union[str, Mapping[str, Any], FaultScenario, None],
) -> Optional[FaultScenario]:
    """Normalise any accepted scenario form into a :class:`FaultScenario`.

    Accepts ``None`` (no scenario), a registered name, an inline mapping
    (e.g. the JSON-round-tripped ``EvolutionConfig.scenario`` field) or an
    existing :class:`FaultScenario`.
    """
    if value is None:
        return None
    if isinstance(value, FaultScenario):
        return value
    if isinstance(value, str):
        return SCENARIOS.get(value)
    if isinstance(value, Mapping):
        return FaultScenario.from_dict(dict(value))
    raise TypeError(
        f"scenario must be None, a registered name, a mapping or a "
        f"FaultScenario, got {type(value)!r}"
    )


def normalise_scenario_field(
    value: Union[str, Mapping[str, Any], FaultScenario, None],
) -> Union[str, Mapping[str, Any], None]:
    """Validate a config-field scenario value and return its canonical form.

    Names stay names (validated against the registry so a typo fails at
    config-build time); inline scenarios are validated through
    :class:`FaultScenario` and stored as a read-only normalised dict, so
    config equality survives JSON round trips.
    """
    if value is None:
        return None
    if isinstance(value, str):
        SCENARIOS.get(value)  # raises UnknownStrategyError on a typo
        return value
    return MappingProxyType(resolve_scenario(value).to_dict())


def scenario_from_cli_arg(value: Optional[str]) -> Union[str, Dict[str, Any], None]:
    """Interpret a ``--scenario`` CLI value.

    Registered scenario names always win (a stray file called ``quiet``
    in the working directory cannot shadow the built-in); otherwise the
    value is treated as the path of a ``FaultScenario`` JSON file.
    Returns the form :class:`~repro.api.config.EvolutionConfig` accepts
    for its ``scenario`` field.
    """
    if value is None:
        return None
    if value in SCENARIOS.names():
        return value
    if value.endswith(".json") or os.path.exists(value):
        if not os.path.isfile(value):
            raise ValueError(
                f"--scenario {value!r} is neither a registered scenario name "
                f"({', '.join(sorted(SCENARIOS.names()))}) nor an existing "
                "FaultScenario JSON file"
            )
        with open(value, "r", encoding="utf-8") as handle:
            return FaultScenario.from_json(handle.read()).to_dict()
    SCENARIOS.get(value)  # raises UnknownStrategyError listing the names
    return value
