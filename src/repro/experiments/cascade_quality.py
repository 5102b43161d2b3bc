"""Filtering quality in cascaded mode (Figs. 16 and 17).

The paper compares, stage by stage, three ways of filling a three-stage
cascade that removes salt-and-pepper noise:

* **same filter** — every stage holds the *same* circuit (the one evolved
  for stage 1); quality improves from stage 1 to stage 2 but degrades at
  stage 3, because the circuit is specialised for the original noise level;
* **adapted filters (sequential cascaded evolution)** — each stage is
  evolved on the output of the previous one ("random" in the paper's legend
  refers to the sequential schedule with freshly seeded stages);
* **adapted filters (interleaved cascaded evolution)** — all stages advance
  one generation at a time.

Figs. 16 and 17 plot the average and the best fitness per stage over the
repeated runs; adapted cascades improve monotonically with stage depth and
beat the same-filter cascade at every stage, with little difference between
the sequential and interleaved schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig
from repro.api.experiment import (
    ExperimentSpec,
    add_common_options,
    add_executor_options,
    print_table,
    register_experiment,
    scenario_from_args,
)
from repro.api.session import EvolutionSession
from repro.imaging.images import make_training_pair
from repro.imaging.metrics import sae
from repro.runtime.campaign import CampaignSpec
from repro.runtime.engine import run_campaign
from repro.runtime.runners import register_runner

__all__ = [
    "CascadePoint",
    "ARRANGEMENTS",
    "build_cascade_quality_campaign",
    "cascade_quality_comparison",
]

#: The three cascade arrangements Figs. 16-17 compare.
ARRANGEMENTS = ("same_filter", "adapted_sequential", "adapted_interleaved")


@dataclass(frozen=True)
class CascadePoint:
    """Fitness of one cascade arrangement at one stage depth."""

    arrangement: str     #: "same_filter", "adapted_sequential", "adapted_interleaved"
    stage: int           #: 1-based stage index
    average_fitness: float
    best_fitness: float
    n_runs: int


def _stage_fitnesses(platform: EvolvableHardwarePlatform, training, reference,
                     n_stages: int) -> List[float]:
    """Aggregated MAE of the cascade output after each stage."""
    fitnesses: List[float] = []
    data = training
    for stage in range(n_stages):
        data = platform.acb(stage).process(data)
        fitnesses.append(sae(data, reference))
    return fitnesses


def _evolve_base_filter(pair, run_seed, n_stages, n_generations, n_offspring,
                        mutation_rate, backend="reference", fitness_cache=None,
                        scenario=None):
    """Evolve the stage-1 circuit shared by every arrangement of one run.

    The same circuit is used for the "same filter in every stage"
    arrangement and as the first stage of both adapted cascades, so the
    comparison isolates what the paper compares: whether *adapting the
    later stages* beats simply repeating the first one.  Evolution is
    fully deterministic given the seeds, so each arrangement run can
    recompute it independently and still start from the same circuit.
    """
    session = EvolutionSession(
        PlatformConfig(n_arrays=n_stages, seed=run_seed, backend=backend),
        EvolutionConfig(
            strategy="parallel",
            n_generations=n_generations,
            n_offspring=n_offspring,
            mutation_rate=mutation_rate,
            seed=run_seed,
            fitness_cache=fitness_cache,
            scenario=scenario,
            options={"n_arrays": 1},
        ),
    )
    result = session.evolve(pair).raw
    return session, result.best_genotypes[0]


@register_runner("cascade-arrangement")
def run_cascade_arrangement(run) -> RunArtifact:
    """Campaign runner: per-stage fitness of one cascade arrangement.

    One run covers one (run seed, arrangement) cell of the Figs. 16-17
    comparison; the three arrangements of a repetition share the same
    deterministic base filter, so fanning the cells out over workers
    changes nothing about the numbers.
    """
    params = run.params
    arrangement = params["arrangement"]
    if arrangement not in ARRANGEMENTS:
        raise ValueError(f"unknown cascade arrangement {arrangement!r}")
    run_seed = int(params["run_seed"])
    n_stages = int(params["n_stages"])
    n_generations = int(params["n_generations"])
    n_offspring = int(params["n_offspring"])
    mutation_rate = int(params["mutation_rate"])
    backend = str(params.get("backend", "reference"))
    fitness_cache = run.evolution.fitness_cache
    scenario = params.get("scenario")
    pair = make_training_pair(
        "salt_pepper_denoise",
        size=int(params["image_side"]),
        seed=run_seed,
        noise_level=float(params["noise_level"]),
    )
    base_session, base_filter = _evolve_base_filter(
        pair, run_seed, n_stages, n_generations, n_offspring, mutation_rate, backend,
        fitness_cache, scenario,
    )

    if arrangement == "same_filter":
        platform = base_session.platform
        for stage in range(n_stages):
            platform.configure_array(stage, base_filter)
            platform.set_bypass(stage, False)
        fitnesses = _stage_fitnesses(platform, pair.training, pair.reference, n_stages)
    else:
        schedule = arrangement.removeprefix("adapted_")
        session = EvolutionSession(
            PlatformConfig(n_arrays=n_stages, seed=run_seed, backend=backend),
            EvolutionConfig(
                strategy="cascaded",
                n_generations=n_generations,
                n_offspring=n_offspring,
                mutation_rate=mutation_rate,
                seed=run_seed,
                fitness_cache=fitness_cache,
                scenario=scenario,
                options={
                    "fitness_mode": "separate",
                    "schedule": schedule,
                    "n_stages": n_stages,
                },
            ),
        )
        session.evolve(pair, seed_genotypes=[base_filter])
        fitnesses = _stage_fitnesses(
            session.platform, pair.training, pair.reference, n_stages
        )
    return RunArtifact(
        kind="cascade-arrangement",
        config={"arrangement": arrangement, "run_seed": run_seed},
        results={"stage_fitnesses": fitnesses},
    )


def build_cascade_quality_campaign(
    image_side: int = 32,
    noise_level: float = 0.3,
    n_stages: int = 3,
    n_generations: int = 120,
    n_runs: int = 3,
    n_offspring: int = 9,
    mutation_rate: int = 3,
    seed: int = 2013,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> CampaignSpec:
    """The Figs. 16-17 comparison as a (repetition x arrangement) campaign.

    The persistent fitness-cache path rides in the spec's evolution config,
    whose value-transparent knobs :func:`~repro.api.signature.run_signature`
    ignores, so a run deduplicates against the same run without a cache.
    """
    return CampaignSpec(
        name="cascade-quality",
        runner="cascade-arrangement",
        grid={
            "run_seed": [seed + 31 * run for run in range(n_runs)],
            "arrangement": list(ARRANGEMENTS),
        },
        params={
            "image_side": int(image_side),
            "noise_level": float(noise_level),
            "n_stages": int(n_stages),
            "n_generations": int(n_generations),
            "n_offspring": int(n_offspring),
            "mutation_rate": int(mutation_rate),
            "backend": str(backend),
            # A scenario name or inline dict rides the JSON-shipped params
            # so process-executor workers replay the same fault timeline.
            "scenario": scenario,
        },
        evolution=EvolutionConfig(
            fitness_cache=None if fitness_cache is None else str(fitness_cache)
        ),
        seed=seed,
    )


def cascade_quality_comparison(
    image_side: int = 32,
    noise_level: float = 0.3,
    n_stages: int = 3,
    n_generations: int = 120,
    n_runs: int = 3,
    n_offspring: int = 9,
    mutation_rate: int = 3,
    seed: int = 2013,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> List[CascadePoint]:
    """Run the three cascade arrangements and return per-stage fitness points.

    Every (repetition, arrangement) cell is an independent campaign run,
    so the whole comparison fans out on the selected executor without
    changing any of the resulting points.
    """
    spec = build_cascade_quality_campaign(
        image_side=image_side,
        noise_level=noise_level,
        n_stages=n_stages,
        n_generations=n_generations,
        n_runs=n_runs,
        n_offspring=n_offspring,
        mutation_rate=mutation_rate,
        seed=seed,
        backend=backend,
        fitness_cache=fitness_cache,
        scenario=scenario,
    )
    campaign = run_campaign(spec, executor=executor, max_workers=max_workers)
    per_arrangement: Dict[str, List[List[float]]] = {
        arrangement: [] for arrangement in ARRANGEMENTS
    }
    for run in campaign.runs:
        artifact = campaign.artifact_for(run)
        per_arrangement[run.params["arrangement"]].append(
            [float(value) for value in artifact.results["stage_fitnesses"]]
        )

    points: List[CascadePoint] = []
    for arrangement, runs in per_arrangement.items():
        stacked = np.asarray(runs, dtype=np.float64)  # (n_runs, n_stages)
        for stage in range(n_stages):
            points.append(
                CascadePoint(
                    arrangement=arrangement,
                    stage=stage + 1,
                    average_fitness=float(stacked[:, stage].mean()),
                    best_fitness=float(stacked[:, stage].min()),
                    n_runs=len(runs),
                )
            )
    return points


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    parser.add_argument("--noise", type=float, default=0.3,
                        help="salt-and-pepper density")
    add_common_options(parser, generations=60)
    add_executor_options(parser)


def _run(args) -> RunArtifact:
    points = cascade_quality_comparison(
        image_side=args.image_side,
        noise_level=args.noise,
        n_generations=args.generations,
        n_runs=args.runs,
        seed=args.seed,
        executor=args.executor,
        max_workers=args.workers,
        backend=args.backend,
        fitness_cache=args.fitness_cache,
        scenario=scenario_from_args(args),
    )
    rows = [
        {"arrangement": p.arrangement, "stage": p.stage,
         "avg_fitness": p.average_fitness, "best_fitness": p.best_fitness}
        for p in points
    ]
    return RunArtifact(
        kind="cascade-quality",
        config={"args": {"noise": args.noise, "generations": args.generations,
                         "runs": args.runs, "image_side": args.image_side,
                         "seed": args.seed, "backend": args.backend}},
        results={"rows": rows},
    )


def _render(artifact: RunArtifact) -> None:
    print_table("Figs. 16-17: cascade arrangements, per-stage fitness",
                artifact.results["rows"],
                ["arrangement", "stage", "avg_fitness", "best_fitness"])


register_experiment(ExperimentSpec(
    name="cascade-quality",
    help="cascade arrangements (Figs. 16-17)",
    configure=_configure,
    run=_run,
    render=_render,
))
