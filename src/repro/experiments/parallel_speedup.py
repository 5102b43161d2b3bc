"""Parallel-evolution speed-up (Figs. 12 and 13).

The paper reports the average evolution time of 50 runs of 100 000
generations for mutation rates k = 1, 3, 5, with a single array versus
three arrays evaluating candidates in parallel, for 128x128 (Fig. 12) and
256x256 (Fig. 13) images.  The observed behaviour is:

* evolution time grows with the mutation rate (more mutated function genes
  → more partial reconfigurations per offspring);
* using three arrays saves an approximately *constant* amount of time,
  independent of the mutation rate, because only evaluation is parallelised
  (the single shared reconfiguration engine serialises placement);
* the saving grows with the image size (evaluation takes longer, so hiding
  it behind parallelism pays more) — about 4x when going from 128x128 to
  256x256.

Two reproductions are provided:

* :func:`evolution_time_sweep` — the full-scale sweep (100 000 generations)
  under the calibrated platform timing model, which is what the paper's
  time axis measures;
* :func:`measured_speedup_sweep` — real (smaller) evolution runs on the
  simulator whose per-generation reconfiguration counts are fed through the
  Fig. 11 scheduler, confirming that the event counts behind the model
  match actual evolution behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig, TaskSpec
from repro.api.experiment import (
    ExperimentSpec,
    add_common_options,
    add_executor_options,
    print_table,
    register_experiment,
    scenario_from_args,
)
from repro.array.genotype import GenotypeSpec
from repro.runtime.campaign import CampaignSpec
from repro.runtime.engine import run_campaign
from repro.timing.model import EvolutionTimingModel

__all__ = [
    "SpeedupPoint",
    "evolution_time_sweep",
    "build_measured_speedup_campaign",
    "measured_speedup_sweep",
]


@dataclass(frozen=True)
class SpeedupPoint:
    """One point of the Fig. 12/13 series."""

    image_side: int
    mutation_rate: int
    n_arrays: int
    n_generations: int
    evolution_time_s: float
    n_reconfigurations: Optional[int] = None  #: actual PE writes (measured sweeps only)


def evolution_time_sweep(
    image_sides: Sequence[int] = (128, 256),
    mutation_rates: Sequence[int] = (1, 3, 5),
    array_counts: Sequence[int] = (1, 3),
    n_generations: int = 100_000,
    n_offspring: int = 9,
    timing_model: Optional[EvolutionTimingModel] = None,
    spec: GenotypeSpec = GenotypeSpec(),
) -> List[SpeedupPoint]:
    """Full-scale evolution-time sweep under the platform timing model.

    Returns one :class:`SpeedupPoint` per (image size, mutation rate,
    array count) combination — the series plotted in Figs. 12 and 13.
    """
    model = timing_model if timing_model is not None else EvolutionTimingModel()
    points: List[SpeedupPoint] = []
    for side in image_sides:
        n_pixels = side * side
        for k in mutation_rates:
            for n_arrays in array_counts:
                total = model.run_time_s(
                    n_generations=n_generations,
                    n_offspring=n_offspring,
                    n_arrays=n_arrays,
                    n_pixels=n_pixels,
                    mutation_rate=k,
                    spec=spec,
                )
                points.append(
                    SpeedupPoint(
                        image_side=side,
                        mutation_rate=k,
                        n_arrays=n_arrays,
                        n_generations=n_generations,
                        evolution_time_s=total,
                    )
                )
    return points


def time_savings(points: Sequence[SpeedupPoint]) -> List[dict]:
    """Per-(image size, mutation rate) saving of 3 arrays vs 1 array."""
    by_key = {}
    for point in points:
        by_key[(point.image_side, point.mutation_rate, point.n_arrays)] = point
    rows: List[dict] = []
    sides = sorted({p.image_side for p in points})
    rates = sorted({p.mutation_rate for p in points})
    for side in sides:
        for k in rates:
            single = by_key.get((side, k, 1))
            triple = by_key.get((side, k, 3))
            if single is None or triple is None:
                continue
            rows.append(
                {
                    "image_side": side,
                    "mutation_rate": k,
                    "single_array_s": single.evolution_time_s,
                    "three_arrays_s": triple.evolution_time_s,
                    "saving_s": single.evolution_time_s - triple.evolution_time_s,
                }
            )
    return rows


def build_measured_speedup_campaign(
    image_side: int = 32,
    mutation_rates: Sequence[int] = (1, 3, 5),
    array_counts: Sequence[int] = (1, 3),
    n_generations: int = 60,
    n_offspring: int = 9,
    noise_level: float = 0.1,
    seed: int = 2013,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> CampaignSpec:
    """The Fig. 12/13 measured sweep as a declarative campaign.

    One run per (mutation rate, array count) point: the mutation rate is a
    full grid axis, while the array count pairs the platform size with the
    ``n_arrays`` option of the parallel driver (the platform always keeps
    at least the paper's three arrays).
    """
    return CampaignSpec(
        name="measured-speedup",
        runner="evolve",
        platform=PlatformConfig(n_arrays=3, seed=seed, backend=backend),
        evolution=EvolutionConfig(
            strategy="parallel",
            n_generations=n_generations,
            n_offspring=n_offspring,
            seed=seed,
            fitness_cache=fitness_cache,
            scenario=scenario,
        ),
        task=TaskSpec(
            task="salt_pepper_denoise",
            image_side=image_side,
            noise_level=noise_level,
            seed=seed,
        ),
        grid={"evolution.mutation_rate": [int(k) for k in mutation_rates]},
        paired={
            "platform.n_arrays": [max(3, int(n)) for n in array_counts],
            "evolution.options": [{"n_arrays": int(n)} for n in array_counts],
        },
        seed=seed,
    )


def measured_speedup_sweep(
    image_side: int = 32,
    mutation_rates: Sequence[int] = (1, 3, 5),
    array_counts: Sequence[int] = (1, 3),
    n_generations: int = 60,
    n_offspring: int = 9,
    noise_level: float = 0.1,
    seed: int = 2013,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> List[SpeedupPoint]:
    """Small-scale measured sweep: real evolution runs, platform time from the scheduler.

    The generation budget is intentionally modest so the sweep completes in
    benchmark time; the platform-time axis still reflects the full Fig. 11
    schedule because it is driven by the per-offspring reconfiguration
    counts the runs actually produce.

    The sweep's points are independent runs, so they execute as a campaign
    on the selected executor (``serial``/``thread``/``process``); the
    executor never changes the points, only the wall-clock time.
    """
    spec = build_measured_speedup_campaign(
        image_side=image_side,
        mutation_rates=mutation_rates,
        array_counts=array_counts,
        n_generations=n_generations,
        n_offspring=n_offspring,
        noise_level=noise_level,
        seed=seed,
        backend=backend,
        fitness_cache=fitness_cache,
        scenario=scenario,
    )
    campaign = run_campaign(spec, executor=executor, max_workers=max_workers)
    points: List[SpeedupPoint] = []
    for run in campaign.runs:
        artifact = campaign.artifact_for(run)
        points.append(
            SpeedupPoint(
                image_side=run.task.image_side,
                mutation_rate=run.evolution.mutation_rate,
                n_arrays=int(run.evolution.options["n_arrays"]),
                n_generations=artifact.results["n_generations"],
                evolution_time_s=artifact.timing["platform_time_s"],
                n_reconfigurations=artifact.results["n_reconfigurations"],
            )
        )
    return points


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    parser.add_argument("--measured", action="store_true",
                        help="run real evolution instead of the timing model")
    add_common_options(parser, generations=100_000)
    add_executor_options(parser)


def _run(args) -> RunArtifact:
    config = {
        "args": {
            "measured": args.measured,
            "generations": args.generations,
            "image_side": args.image_side,
            "seed": args.seed,
            "backend": args.backend,
        }
    }
    if args.measured:
        points = measured_speedup_sweep(
            image_side=args.image_side,
            n_generations=args.generations,
            seed=args.seed,
            executor=args.executor,
            max_workers=args.workers,
            backend=args.backend,
            fitness_cache=args.fitness_cache,
            scenario=scenario_from_args(args),
        )
        rows = [
            {"image": p.image_side, "k": p.mutation_rate, "arrays": p.n_arrays,
             "time_s": p.evolution_time_s, "pe_writes": p.n_reconfigurations}
            for p in points
        ]
        return RunArtifact(kind="speedup", config=config,
                           results={"mode": "measured", "rows": rows})
    points = evolution_time_sweep(n_generations=args.generations)
    rows = [
        {"image": f"{p.image_side}x{p.image_side}", "k": p.mutation_rate,
         "arrays": p.n_arrays, "time_s": p.evolution_time_s}
        for p in points
    ]
    return RunArtifact(
        kind="speedup",
        config=config,
        results={"mode": "model", "rows": rows, "savings": time_savings(points)},
    )


def _render(artifact: RunArtifact) -> None:
    generations = artifact.config["args"]["generations"]
    if artifact.results["mode"] == "measured":
        print_table("Measured parallel-evolution sweep", artifact.results["rows"],
                    ["image", "k", "arrays", "time_s", "pe_writes"])
        return
    print_table(f"Figs. 12-13: evolution time, {generations} generations",
                artifact.results["rows"], ["image", "k", "arrays", "time_s"])
    print_table("Time saving of 3 arrays vs 1", artifact.results["savings"],
                ["image_side", "mutation_rate", "single_array_s",
                 "three_arrays_s", "saving_s"])


register_experiment(ExperimentSpec(
    name="speedup",
    help="parallel-evolution speed-up (Figs. 12-13)",
    configure=_configure,
    run=_run,
    render=_render,
))
