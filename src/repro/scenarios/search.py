"""Adversarial scenario search: evolve worst-case fault timelines (red team).

The built-in :data:`~repro.scenarios.SCENARIOS` régimes are hand-written,
but the paper's §V self-healing story is only as credible as the worst
timeline the healer survives — and the interesting worst cases are not
the ones anyone writes by hand.  This module points the repository's own
evolutionary machinery at the *scenario space*:

* a :class:`FaultScenario` becomes the genotype — SEU/LPD arrival rates,
  burst timing and magnitude, permanent-onset placement and scrub cadence
  — constrained by a :class:`ScenarioBounds` envelope (including an
  expected-event budget, so the search cannot "win" by simply requesting
  more faults than the hand-written régimes);
* :func:`mutate_scenario` / :func:`crossover_scenarios` are
  validity-preserving variation operators (every child is clamped back
  into the bounds, so every candidate is a valid, JSON-round-tripping
  scenario);
* the outer loop is the existing
  :class:`~repro.ea.strategy.OnePlusLambdaES`, which accepts offspring
  through the same :func:`~repro.ea.strategy.select` rule as the platform
  drivers, with a ``mutation_operator`` that returns the child scenario
  itself (a scenario has no PEs, so the drivers' placement and
  reconfiguration accounting does not apply to it); its fitness is the
  mission degradation (or time-to-repair) of a *fixed* §V.A healing
  policy run through the ``scenario-lifecycle`` campaign runner — one
  :class:`~repro.runtime.campaign.CampaignSpec` per search generation, so
  the serial/thread/process/distributed executors, the
  content-addressed dedupe cache and the resumable
  :class:`~repro.runtime.store.CampaignStore` all work for free;
* discovered dominated-by-none timelines accumulate in a
  :class:`ScenarioArchive` (Pareto over degradation and time-to-repair)
  whose JSON form is canonical — same search seed, byte-identical
  archive, regardless of executor or backend.

``tools/freeze_scenario.py`` promotes archive entries into
:mod:`repro.scenarios.frozen` (permanent regression workloads), and the
``red-team`` experiment / ``repro-ehw red-team`` subcommand exposes the
search on the CLI.

Everything here is deterministic: the search RNG is the tagged stream
``SeedSequence([_REDTEAM_STREAM_TAG, seed])``, candidate scenarios carry
no wall-clock state, and the archive writer sorts entries and keys
canonically (and skips empty-event generations rather than emitting
spurious entries).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.api.config import (
    EvolutionConfig,
    PlatformConfig,
    SelfHealingConfig,
    TaskSpec,
    _ConfigBase,
)
from repro.api.signature import content_signature
from repro.ea.strategy import OnePlusLambdaES
from repro.runtime.campaign import CampaignSpec
from repro.runtime.engine import run_campaign
from repro.runtime.store import CampaignStore, DedupeCache
from repro.scenarios.schedule import EventSchedule, compile_schedule
from repro.scenarios.spec import FaultScenario

__all__ = [
    "ScenarioBounds",
    "RedTeamConfig",
    "ScenarioGenotypeOperator",
    "ArchiveEntry",
    "ScenarioArchive",
    "RedTeamResult",
    "OBJECTIVES",
    "PARETO_OBJECTIVES",
    "expected_fault_events",
    "scenario_within_bounds",
    "clamp_scenario",
    "mutate_scenario",
    "crossover_scenarios",
    "initial_scenario",
    "mission_metrics",
    "schedule_event_summary",
    "build_mission_campaign",
    "evaluate_mission",
    "red_team_search",
]

#: Stream tag of the red-team search RNG (mutation/crossover draws).
#: Mixed with the search seed via ``SeedSequence`` so the search can
#: never alias the scenario-schedule or fabric streams derived from the
#: same base seed (the PR 4 tagged-stream contract).
_REDTEAM_STREAM_TAG = 0xAD5E4C8

#: Fitness objectives the outer ES can minimise (it minimises the
#: *negated* metric, so the search maximises harm).
OBJECTIVES: Mapping[str, str] = {
    "degradation": "degradation",
    "time-to-repair": "steps_degraded",
}

#: The archive's Pareto axes, both maximised: mission degradation (how
#: much worse the worst array ends vs its calibration baseline) and
#: time-to-repair (mission steps spent with a detected fault).
PARETO_OBJECTIVES: Tuple[str, ...] = ("degradation", "steps_degraded")


# --------------------------------------------------------------------------- #
# The genotype envelope
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioBounds(_ConfigBase):
    """The valid scenario-genotype envelope the search explores.

    Parameters
    ----------
    horizon:
        Mission length in monitoring cycles; every candidate timeline is
        judged over exactly this many steps, and events scheduled at or
        beyond it are dropped by :func:`clamp_scenario`.
    max_seu_rate, max_lpd_rate:
        Per-generation Poisson arrival-rate ceilings.
    max_bursts, max_onsets:
        Maximum number of ``seu_bursts`` / ``lpd_onsets`` entries.
    max_burst_count, max_onset_count:
        Maximum count of a single burst/onset entry.
    max_scrub_period:
        Scrub-cadence ceiling (``0`` — no background scrub — is always
        allowed).
    event_budget:
        Ceiling on the *expected* number of fault events over the
        horizon (``(seu_rate + lpd_rate) * horizon`` plus all in-horizon
        burst/onset counts).  This is the matched-budget rule: a
        discovered worst case must do its damage with no more expected
        events than the hand-written régimes it is compared against.
    """

    horizon: int = 10
    max_seu_rate: float = 1.5
    max_lpd_rate: float = 0.3
    max_bursts: int = 3
    max_onsets: int = 2
    max_burst_count: int = 6
    max_onset_count: int = 2
    max_scrub_period: int = 8
    event_budget: float = 12.0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.max_seu_rate < 0 or self.max_lpd_rate < 0:
            raise ValueError("rate ceilings must be non-negative")
        if self.max_bursts < 0 or self.max_onsets < 0:
            raise ValueError("event-list ceilings must be non-negative")
        if self.max_burst_count < 1 or self.max_onset_count < 1:
            raise ValueError("per-event count ceilings must be >= 1")
        if self.max_scrub_period < 0:
            raise ValueError("max_scrub_period must be >= 0")
        if self.event_budget <= 0:
            raise ValueError(f"event_budget must be > 0, got {self.event_budget}")


def expected_fault_events(scenario: FaultScenario, horizon: int) -> float:
    """Expected fault events (SEU + LPD, not scrubs) over ``horizon`` steps."""
    total = (scenario.seu_rate + scenario.lpd_rate) * horizon
    total += sum(count for generation, count in scenario.seu_bursts if generation < horizon)
    total += sum(count for generation, count in scenario.lpd_onsets if generation < horizon)
    return float(total)


def scenario_within_bounds(
    scenario: FaultScenario, bounds: ScenarioBounds, tol: float = 1e-9
) -> bool:
    """Whether ``scenario`` lies inside the search envelope."""
    if not 0 <= scenario.seu_rate <= bounds.max_seu_rate + tol:
        return False
    if not 0 <= scenario.lpd_rate <= bounds.max_lpd_rate + tol:
        return False
    if not 0 <= scenario.scrub_period <= bounds.max_scrub_period:
        return False
    if len(scenario.seu_bursts) > bounds.max_bursts:
        return False
    if len(scenario.lpd_onsets) > bounds.max_onsets:
        return False
    for generation, count in scenario.seu_bursts:
        if generation >= bounds.horizon or not 1 <= count <= bounds.max_burst_count:
            return False
    for generation, count in scenario.lpd_onsets:
        if generation >= bounds.horizon or not 1 <= count <= bounds.max_onset_count:
            return False
    return expected_fault_events(scenario, bounds.horizon) <= bounds.event_budget + tol


def _clamp_events(
    events: Sequence[Tuple[int, int]], bounds: ScenarioBounds, max_entries: int,
    max_count: int,
) -> List[Tuple[int, int]]:
    kept = sorted(
        (int(generation), int(min(max(count, 1), max_count)))
        for generation, count in events
        if 0 <= generation < bounds.horizon
    )
    # Collapse duplicate generations (two bursts at one generation are one
    # bigger burst) so crossover merges stay canonical.
    merged: Dict[int, int] = {}
    for generation, count in kept:
        merged[generation] = min(merged.get(generation, 0) + count, max_count)
    return sorted(merged.items())[:max_entries]


def clamp_scenario(scenario: FaultScenario, bounds: ScenarioBounds) -> FaultScenario:
    """Deterministically project ``scenario`` into the search envelope.

    Event lists are trimmed to the horizon and their ceilings, then the
    expected-event budget is enforced: discrete burst/onset counts are
    shrunk from the timeline's tail first, and the continuous rates are
    scaled into whatever budget remains.  Clamping an in-bounds scenario
    is the identity (up to rate rounding), so the operators can always
    clamp unconditionally.
    """
    bursts = _clamp_events(
        scenario.seu_bursts, bounds, bounds.max_bursts, bounds.max_burst_count
    )
    onsets = _clamp_events(
        scenario.lpd_onsets, bounds, bounds.max_onsets, bounds.max_onset_count
    )

    discrete = sum(count for _, count in bursts) + sum(count for _, count in onsets)
    while discrete > bounds.event_budget and (bursts or onsets):
        # Shrink from the tail: latest-scheduled events disappear first,
        # which keeps the timeline's opening (the part the healer has
        # already reacted to) stable under small budget changes.
        target = bursts if bursts and (not onsets or bursts[-1][0] >= onsets[-1][0]) \
            else onsets
        generation, count = target[-1]
        if count > 1:
            target[-1] = (generation, count - 1)
        else:
            target.pop()
        discrete -= 1

    seu_rate = float(min(max(scenario.seu_rate, 0.0), bounds.max_seu_rate))
    lpd_rate = float(min(max(scenario.lpd_rate, 0.0), bounds.max_lpd_rate))
    rate_budget = max(bounds.event_budget - discrete, 0.0)
    expected_rate_events = (seu_rate + lpd_rate) * bounds.horizon
    if expected_rate_events > rate_budget:
        scale = rate_budget / expected_rate_events
        seu_rate *= scale
        lpd_rate *= scale
    # Quantise to 1e-6.  ``round`` is idempotent (truncating via
    # ``int(x * 1e6)`` is not: float representation error can shave a
    # further step off an already-quantised rate on every clamp), but it
    # can round the total a hair over the remaining budget or a rate over
    # its ceiling — cap back and walk the total down a step if so.
    seu_rate = min(round(seu_rate, 6), bounds.max_seu_rate)
    lpd_rate = min(round(lpd_rate, 6), bounds.max_lpd_rate)
    while (seu_rate + lpd_rate) * bounds.horizon > rate_budget + 1e-9:
        if seu_rate >= lpd_rate and seu_rate > 0:
            seu_rate = max(round(seu_rate - 1e-6, 6), 0.0)
        elif lpd_rate > 0:
            lpd_rate = max(round(lpd_rate - 1e-6, 6), 0.0)
        else:  # pragma: no cover - both rates zero cannot exceed the budget
            break
    return scenario.replace(
        seu_rate=seu_rate,
        lpd_rate=lpd_rate,
        seu_bursts=tuple(bursts),
        lpd_onsets=tuple(onsets),
        scrub_period=int(min(max(scenario.scrub_period, 0), bounds.max_scrub_period)),
    )


def initial_scenario(bounds: ScenarioBounds, name: str = "redteam-candidate") -> FaultScenario:
    """A mild deterministic starting genotype inside ``bounds``."""
    burst_generation = min(1, bounds.horizon - 1)
    return clamp_scenario(
        FaultScenario(
            name=name,
            seu_rate=min(0.25, bounds.max_seu_rate),
            lpd_rate=min(0.02, bounds.max_lpd_rate),
            seu_bursts=((burst_generation, 1),) if bounds.max_bursts else (),
            scrub_period=min(4, bounds.max_scrub_period),
        ),
        bounds,
    )


# --------------------------------------------------------------------------- #
# Variation operators
# --------------------------------------------------------------------------- #
def _mutate_event_list(
    events: Tuple[Tuple[int, int], ...],
    bounds: ScenarioBounds,
    rng: np.random.Generator,
    max_entries: int,
    max_count: int,
    action: str,
) -> Tuple[Tuple[int, int], ...]:
    entries = list(events)
    if action == "add" or not entries:
        entry = (int(rng.integers(0, bounds.horizon)), int(rng.integers(1, max_count + 1)))
        if len(entries) < max_entries:
            entries.append(entry)
        elif entries:
            entries[int(rng.integers(0, len(entries)))] = entry
        return tuple(entries)
    index = int(rng.integers(0, len(entries)))
    if action == "remove":
        entries.pop(index)
    else:  # "move": reschedule and resize one entry
        entries[index] = (
            int(rng.integers(0, bounds.horizon)),
            int(rng.integers(1, max_count + 1)),
        )
    return tuple(entries)


def mutate_scenario(
    scenario: FaultScenario, bounds: ScenarioBounds, rng: np.random.Generator
) -> FaultScenario:
    """One validity-preserving mutation move, drawn from ``rng``.

    Exactly one aspect of the timeline changes per call — an arrival
    rate, the scrub cadence, or one burst/onset entry (added, removed,
    rescheduled or resized) — and the result is clamped back into
    ``bounds``, so the returned scenario is always valid.
    """
    move = int(rng.integers(0, 8))
    if move == 0:
        jitter = (rng.random() * 2 - 1) * 0.25 * max(bounds.max_seu_rate, 1e-6)
        scenario = scenario.replace(seu_rate=max(scenario.seu_rate + jitter, 0.0))
    elif move == 1:
        jitter = (rng.random() * 2 - 1) * 0.25 * max(bounds.max_lpd_rate, 1e-6)
        scenario = scenario.replace(lpd_rate=max(scenario.lpd_rate + jitter, 0.0))
    elif move == 2:
        scenario = scenario.replace(
            scrub_period=int(rng.integers(0, bounds.max_scrub_period + 1))
        )
    else:
        action = ("add", "move", "remove")[int(rng.integers(0, 3))]
        if move in (3, 4, 5):
            scenario = scenario.replace(seu_bursts=_mutate_event_list(
                scenario.seu_bursts, bounds, rng, bounds.max_bursts,
                bounds.max_burst_count, action,
            ))
        else:
            scenario = scenario.replace(lpd_onsets=_mutate_event_list(
                scenario.lpd_onsets, bounds, rng, bounds.max_onsets,
                bounds.max_onset_count, action,
            ))
    return clamp_scenario(scenario, bounds)


def _cross_events(
    first: Tuple[Tuple[int, int], ...],
    second: Tuple[Tuple[int, int], ...],
    rng: np.random.Generator,
) -> Tuple[Tuple[int, int], ...]:
    pool = sorted(set(first) | set(second))
    kept = [entry for entry in pool if rng.random() < 0.5]
    if pool and not kept:
        kept = [pool[int(rng.integers(0, len(pool)))]]
    return tuple(kept)


def crossover_scenarios(
    first: FaultScenario,
    second: FaultScenario,
    bounds: ScenarioBounds,
    rng: np.random.Generator,
) -> FaultScenario:
    """Uniform crossover of two timelines, clamped back into ``bounds``.

    Scalar fields come from either parent with equal probability; the
    burst/onset lists are merged and subsampled (never emptied when a
    parent had events).  The child keeps ``first``'s name and seed.
    """
    picks = rng.integers(0, 2, size=3)
    child = first.replace(
        seu_rate=(first if picks[0] else second).seu_rate,
        lpd_rate=(first if picks[1] else second).lpd_rate,
        scrub_period=(first if picks[2] else second).scrub_period,
        seu_bursts=_cross_events(first.seu_bursts, second.seu_bursts, rng),
        lpd_onsets=_cross_events(first.lpd_onsets, second.lpd_onsets, rng),
    )
    return clamp_scenario(child, bounds)


class ScenarioGenotypeOperator:
    """The ES ``mutation_operator`` over :class:`FaultScenario` genotypes.

    With probability ``crossover_rate`` (and a non-empty archive) the
    parent is first crossed with an archive member drawn from ``rng``,
    then ``mutation_rate`` mutation moves are applied — all draws come
    from the ES's own generator, so one search seed fixes the entire
    variation stream.  A call returns the child scenario.
    """

    def __init__(
        self,
        bounds: ScenarioBounds,
        archive: Optional["ScenarioArchive"] = None,
        crossover_rate: float = 0.0,
    ) -> None:
        self.bounds = bounds
        self.archive = archive
        self.crossover_rate = float(crossover_rate)

    def __call__(
        self, parent: FaultScenario, mutation_rate: int, rng: np.random.Generator
    ) -> FaultScenario:
        scenario = parent
        if (
            self.crossover_rate > 0
            and self.archive is not None
            and self.archive.entries
            and rng.random() < self.crossover_rate
        ):
            mate = self.archive.entries[int(rng.integers(0, len(self.archive.entries)))]
            scenario = crossover_scenarios(scenario, mate.scenario, self.bounds, rng)
        for _ in range(int(mutation_rate)):
            scenario = mutate_scenario(scenario, self.bounds, rng)
        return scenario


# --------------------------------------------------------------------------- #
# The Pareto archive
# --------------------------------------------------------------------------- #
@dataclass
class ArchiveEntry:
    """One dominated-by-none discovered timeline with its provenance."""

    scenario: FaultScenario
    metrics: Dict[str, Any]
    scenario_signature: str
    schedule_signature: str
    run_signature: str
    generation: int
    scenario_events: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "metrics": dict(self.metrics),
            "scenario_signature": self.scenario_signature,
            "schedule_signature": self.schedule_signature,
            "run_signature": self.run_signature,
            "generation": self.generation,
            "scenario_events": {
                generation: dict(counts)
                for generation, counts in self.scenario_events.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArchiveEntry":
        return cls(
            scenario=FaultScenario.from_dict(dict(data["scenario"])),
            metrics=dict(data["metrics"]),
            scenario_signature=data["scenario_signature"],
            schedule_signature=data["schedule_signature"],
            run_signature=data["run_signature"],
            generation=int(data["generation"]),
            scenario_events={
                generation: dict(counts)
                for generation, counts in data.get("scenario_events", {}).items()
            },
        )


class ScenarioArchive:
    """Archive of scenarios dominated by none (Pareto, both axes maximised)."""

    def __init__(self, objectives: Sequence[str] = PARETO_OBJECTIVES) -> None:
        self.objectives = tuple(objectives)
        self.entries: List[ArchiveEntry] = []

    @staticmethod
    def _key(metrics: Mapping[str, Any], objectives: Sequence[str]) -> Tuple[float, ...]:
        return tuple(float(metrics[name]) for name in objectives)

    def _dominates(self, a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
        ka = self._key(a, self.objectives)
        kb = self._key(b, self.objectives)
        return all(x >= y for x, y in zip(ka, kb)) and any(x > y for x, y in zip(ka, kb))

    def offer(self, entry: ArchiveEntry) -> bool:
        """Add ``entry`` unless a kept entry dominates or exactly ties it.

        First discovery wins a tie: a candidate whose objective vector
        equals a kept entry's is rejected, so the archive holds *distinct*
        trade-off points rather than every metric-identical variant.
        Admitting an entry evicts everything it dominates.
        """
        if any(e.scenario_signature == entry.scenario_signature for e in self.entries):
            return False
        key = self._key(entry.metrics, self.objectives)
        for kept in self.entries:
            kept_key = self._key(kept.metrics, self.objectives)
            if kept_key == key or self._dominates(kept.metrics, entry.metrics):
                return False
        self.entries = [
            e for e in self.entries if not self._dominates(entry.metrics, e.metrics)
        ]
        self.entries.append(entry)
        return True

    def sorted_entries(self) -> List[ArchiveEntry]:
        """Entries in canonical order: most harmful first, signature tiebreak."""
        return sorted(
            self.entries,
            key=lambda e: (
                tuple(-value for value in self._key(e.metrics, self.objectives)),
                e.scenario_signature,
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objectives": list(self.objectives),
            "entries": [entry.to_dict() for entry in self.sorted_entries()],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioArchive":
        archive = cls(objectives=tuple(data.get("objectives", PARETO_OBJECTIVES)))
        archive.entries = [ArchiveEntry.from_dict(entry) for entry in data["entries"]]
        return archive


# --------------------------------------------------------------------------- #
# Mission evaluation (fitness of one candidate timeline)
# --------------------------------------------------------------------------- #
def mission_metrics(results: Mapping[str, Any]) -> Dict[str, Any]:
    """Harm metrics of one ``scenario-lifecycle`` artifact's results.

    ``degradation`` is how much worse the worst array's calibration
    fitness ends relative to its clean baseline (SAE, lower is better —
    positive degradation means the healer did not fully recover);
    ``steps_degraded`` counts mission steps with a detected fault (the
    time-to-repair proxy: an unrepaired fault re-detects every step).
    """
    baseline = max(results["baseline_fitness"].values())
    final = max(results["final_fitness"].values())
    rows = results["rows"]
    steps_degraded = sum(1 for row in rows if row["fault_class"] != "none")
    n_unrecovered = sum(
        1 for row in rows if row["fault_class"] != "none" and not row["recovered"]
    )
    return {
        "degradation": float(final - baseline),
        "steps_degraded": int(steps_degraded),
        "n_unrecovered": int(n_unrecovered),
        "n_recovered": int(results["n_recovered"]),
        "n_events": int(results["n_seus"]) + int(results["n_lpds"]),
        "baseline_worst_fitness": float(baseline),
        "final_worst_fitness": float(final),
    }


def schedule_event_summary(schedule: EventSchedule) -> Dict[str, Dict[str, int]]:
    """Per-generation event counts, *skipping* empty-event generations.

    A timeline whose tail generations carry no events (all bursts early,
    zero rates) must not produce spurious ``scenario_events`` entries in
    the archive — and a zero-length schedule summarises to ``{}``.
    """
    summary: Dict[str, Dict[str, int]] = {}
    for event in schedule.events:
        bucket = summary.setdefault(str(event.generation), {})
        bucket[event.kind] = bucket.get(event.kind, 0) + 1
    return summary


@dataclass(frozen=True)
class RedTeamConfig(_ConfigBase):
    """Declarative red-team search: the envelope, budgets and fixed policy.

    The *mission* fields pin the fixed healing policy every candidate is
    judged against — all seeds derive from ``seed``, so only the
    scenario varies between candidates (a matched comparison) and one
    config + seed reproduces the entire search bit-for-bit.
    """

    name: str = "red-team"
    seed: int = 2013
    n_generations: int = 8
    n_offspring: int = 4
    mutation_moves: int = 1
    crossover_rate: float = 0.25
    objective: str = "degradation"
    candidate_name: str = "redteam-candidate"
    bounds: ScenarioBounds = ScenarioBounds()
    # The fixed mission/healing policy (the blue team):
    n_arrays: int = 3
    image_side: int = 16
    noise_level: float = 0.1
    backend: str = "reference"
    evolution_generations: int = 6
    healing_generations: int = 5
    mission_offspring: int = 9
    mission_mutation_rate: int = 3

    _LEGACY_KEYS: ClassVar[FrozenSet[str]] = frozenset({"population_batching"})

    def __post_init__(self) -> None:
        if isinstance(self.bounds, Mapping):
            object.__setattr__(self, "bounds", ScenarioBounds.from_dict(dict(self.bounds)))
        if not isinstance(self.bounds, ScenarioBounds):
            raise TypeError(f"bounds must be a ScenarioBounds, got {type(self.bounds)!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {sorted(OBJECTIVES)}, got {self.objective!r}"
            )
        if self.n_generations < 0:
            raise ValueError("n_generations must be non-negative")
        if self.n_offspring < 1:
            raise ValueError("n_offspring must be >= 1")
        if self.mutation_moves < 1:
            raise ValueError("mutation_moves must be >= 1")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data["bounds"] = self.bounds.to_dict()
        return data


def build_mission_campaign(
    config: RedTeamConfig, scenarios: Sequence[FaultScenario], index: int
) -> CampaignSpec:
    """One evaluation campaign: the fixed §V.A lifecycle per candidate.

    Every config seed is pinned to ``config.seed`` — candidates differ
    *only* in their ``evolution.scenario`` grid value, so fitness
    differences are attributable to the timeline alone.
    """
    return CampaignSpec(
        name=f"{config.name}-gen-{index:04d}",
        runner="scenario-lifecycle",
        platform=PlatformConfig(
            n_arrays=config.n_arrays, seed=config.seed, backend=config.backend
        ),
        evolution=EvolutionConfig(
            strategy="parallel",
            n_generations=config.evolution_generations,
            n_offspring=config.mission_offspring,
            mutation_rate=config.mission_mutation_rate,
            seed=config.seed,
        ),
        task=TaskSpec(
            task="salt_pepper_denoise",
            image_side=config.image_side,
            noise_level=config.noise_level,
            seed=config.seed,
        ),
        healing=SelfHealingConfig(
            strategy="cascaded",
            imitation_generations=config.healing_generations,
            n_offspring=config.mission_offspring,
            mutation_rate=config.mission_mutation_rate,
            seed=config.seed,
        ),
        grid={"evolution.scenario": [scenario.to_dict() for scenario in scenarios]},
        params={"mission_steps": int(config.bounds.horizon)},
        seed=config.seed,
    )


def evaluate_mission(
    config: RedTeamConfig,
    scenarios: Sequence[FaultScenario],
    executor: str = "serial",
    max_workers: Optional[int] = None,
    store: Optional[CampaignStore] = None,
    cache: Optional[DedupeCache] = None,
    campaign_index: int = 0,
) -> List[Dict[str, Any]]:
    """Judge ``scenarios`` against the fixed healing policy.

    Returns one record per scenario (campaign order): its
    :func:`mission_metrics`, the compiled schedule signature, the run's
    content signature and its campaign status.
    """
    spec = build_mission_campaign(config, scenarios, campaign_index)
    campaign = run_campaign(
        spec, executor=executor, max_workers=max_workers, store=store, cache=cache
    )
    if campaign.n_failed:
        failures = [row for row in campaign.rows() if row["status"] == "failed"]
        raise RuntimeError(
            f"red-team evaluation campaign {spec.name!r} had "
            f"{campaign.n_failed} failed run(s): {failures!r}"
        )
    records: List[Dict[str, Any]] = []
    for run, scenario in zip(spec.expand(), scenarios):
        results = campaign.artifact_for(run).results
        records.append({
            "scenario": scenario,
            "metrics": mission_metrics(results),
            "schedule_signature": results["schedule_signature"],
            "run_signature": run.signature(),
            "status": campaign.status_for(run),
        })
    return records


class _MissionEvaluator:
    """Adapts campaign evaluation to the ES's ``evaluate_population`` hook.

    Each call becomes one campaign (sequentially indexed, so a re-run of
    the same search resumes every generation's store and hits the dedupe
    cache 100%); every judged candidate is offered to the archive as soon
    as its metrics exist.
    """

    def __init__(
        self,
        config: RedTeamConfig,
        archive: ScenarioArchive,
        executor: str,
        max_workers: Optional[int],
        root: Optional[str],
        cache: Optional[DedupeCache],
    ) -> None:
        self.config = config
        self.archive = archive
        self.executor = executor
        self.max_workers = max_workers
        self.root = root
        self.cache = cache
        self.objective_key = OBJECTIVES[config.objective]
        self.n_campaigns = 0
        self.status_counts: Counter = Counter()

    def _store(self, index: int) -> Optional[CampaignStore]:
        if self.root is None:
            return None
        return CampaignStore(
            os.path.join(self.root, "gens", f"{self.config.name}-gen-{index:04d}")
        )

    def evaluate_population(self, scenarios: Sequence[FaultScenario]) -> List[float]:
        index = self.n_campaigns
        self.n_campaigns += 1
        records = evaluate_mission(
            self.config,
            scenarios,
            executor=self.executor,
            max_workers=self.max_workers,
            store=self._store(index),
            cache=self.cache,
            campaign_index=index,
        )
        fitnesses: List[float] = []
        for record in records:
            scenario = record["scenario"]
            self.status_counts[record["status"]] += 1
            schedule = compile_schedule(
                scenario,
                n_generations=self.config.bounds.horizon,
                n_arrays=self.config.n_arrays,
                seed=self.config.seed,
            )
            self.archive.offer(ArchiveEntry(
                scenario=scenario,
                metrics=record["metrics"],
                scenario_signature=scenario.signature(),
                schedule_signature=record["schedule_signature"],
                run_signature=record["run_signature"],
                generation=index,
                scenario_events=schedule_event_summary(schedule),
            ))
            fitnesses.append(-float(record["metrics"][self.objective_key]))
        return fitnesses


# --------------------------------------------------------------------------- #
# The outer search
# --------------------------------------------------------------------------- #
@dataclass
class RedTeamResult:
    """Outcome of one red-team search."""

    config: RedTeamConfig
    archive: ScenarioArchive
    trajectory: List[Dict[str, Any]]
    best_scenario: FaultScenario
    best_fitness: float
    n_evaluations: int
    n_campaigns: int
    status_counts: Dict[str, int]

    def archive_payload(self) -> Dict[str, Any]:
        """The canonical archive document (byte-stable across executors).

        Deliberately excludes anything execution-dependent — wall-clock
        time, cache/resume statuses, worker identity — so the same seed
        yields the same bytes on any executor and backend.
        """
        payload = {
            "config": self.config.to_dict(),
            "objective": self.config.objective,
            "objectives": list(self.archive.objectives),
            "archive": self.archive.to_dict()["entries"],
            "trajectory": [dict(record) for record in self.trajectory],
            "best": {
                "scenario": self.best_scenario.to_dict(),
                "fitness": float(self.best_fitness),
                "objective_value": -float(self.best_fitness),
            },
            "n_evaluations": int(self.n_evaluations),
        }
        payload["signature"] = content_signature(payload)
        return payload

    def archive_json(self) -> str:
        return json.dumps(self.archive_payload(), indent=2, sort_keys=True) + "\n"

    def save_archive(self, path: str) -> str:
        """Write the canonical archive document to ``path``."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.archive_json())
        return path

    def summary(self) -> Dict[str, Any]:
        """Execution summary (this part *may* differ between hot/cold runs)."""
        return {
            "n_evaluations": int(self.n_evaluations),
            "n_campaigns": int(self.n_campaigns),
            "n_archived": len(self.archive.entries),
            "best_objective_value": -float(self.best_fitness),
            "status_counts": dict(sorted(self.status_counts.items())),
        }


def red_team_search(
    config: RedTeamConfig,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    root: Optional[str] = None,
    cache: Union[DedupeCache, str, None] = None,
) -> RedTeamResult:
    """Run the adversarial search; optionally persist under ``root``.

    Parameters
    ----------
    config:
        The search envelope, budgets and fixed healing policy.
    executor:
        Campaign executor name for the per-generation evaluation
        campaigns (``serial``/``thread``/``process``/``distributed``).
    max_workers:
        Worker cap passed through to the executor.
    root:
        Optional persistence root: per-generation campaign stores land
        in ``<root>/gens/``, the dedupe cache in ``<root>/cache`` (unless
        ``cache`` overrides it) and the canonical archive document in
        ``<root>/archive.json``.  Re-running the same search against the
        same root resumes every campaign from its store; re-running
        against a fresh root with the same cache serves every run from
        the dedupe cache.
    cache:
        Optional dedupe cache (or its directory path) shared across
        searches.
    """
    if isinstance(cache, str):
        cache = DedupeCache(cache)
    elif cache is None and root is not None:
        cache = DedupeCache(os.path.join(root, "cache"))

    archive = ScenarioArchive()
    evaluator = _MissionEvaluator(
        config, archive, executor=executor, max_workers=max_workers,
        root=root, cache=cache,
    )
    operator = ScenarioGenotypeOperator(
        config.bounds, archive=archive, crossover_rate=config.crossover_rate
    )
    strategy = OnePlusLambdaES(
        evaluator.evaluate_population,
        operator,
        n_offspring=config.n_offspring,
        mutation_rate=config.mutation_moves,
        rng=np.random.default_rng(
            np.random.SeedSequence([_REDTEAM_STREAM_TAG, int(config.seed)])
        ),
    )
    outcome = strategy.run(
        config.n_generations,
        seed_genotype=initial_scenario(config.bounds, config.candidate_name),
    )
    trajectory = [
        {
            "generation": record.generation,
            "best_fitness": float(record.best_fitness),
            "parent_fitness": float(record.parent_fitness),
            "accepted": bool(record.accepted),
        }
        for record in outcome.history
    ]
    result = RedTeamResult(
        config=config,
        archive=archive,
        trajectory=trajectory,
        best_scenario=outcome.best,
        best_fitness=float(outcome.best_fitness),
        n_evaluations=int(outcome.n_evaluations),
        n_campaigns=evaluator.n_campaigns,
        status_counts=dict(evaluator.status_counts),
    )
    if root is not None:
        result.save_archive(os.path.join(root, "archive.json"))
    return result
