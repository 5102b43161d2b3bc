"""Classic EA vs the new two-level-mutation EA (Figs. 14 and 15).

Fig. 14 compares the average evolution time of the classic parallel EA and
the new two-level-mutation EA over mutation rates k = 1, 3, 5; the new EA
is faster and its time barely depends on k, because only the first batch of
each generation is mutated from the parent with rate k — the remaining
batches are single-gene mutations of the previous batch, so very few PEs
need to be rewritten.  Fig. 15 shows the corresponding final fitness, which
is equal or better with the new strategy.

Each comparison point runs both strategies on the same denoising task with
the same seeds, records the real per-offspring reconfiguration counts, and
reports both the measured platform time (through the Fig. 11 scheduler) and
the final fitness.  The generation budget and the number of repetitions are
parameters so the benchmark can run a quick version while EXPERIMENTS.md
records a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig
from repro.api.experiment import (
    ExperimentSpec,
    add_common_options,
    print_table,
    register_experiment,
    scenario_from_args,
)
from repro.api.session import EvolutionSession
from repro.imaging.images import make_training_pair

__all__ = ["NewEaPoint", "new_ea_comparison"]


@dataclass(frozen=True)
class NewEaPoint:
    """One (strategy, mutation rate) point of the Fig. 14/15 comparison."""

    strategy: str                    #: "classic" or "two_level"
    mutation_rate: int
    mean_platform_time_s: float      #: Fig. 14 series (averaged over runs)
    mean_final_fitness: float        #: Fig. 15 series (averaged over runs)
    mean_reconfigurations_per_generation: float
    n_runs: int
    n_generations: int


def new_ea_comparison(
    image_side: int = 32,
    mutation_rates: Sequence[int] = (1, 3, 5),
    n_generations: int = 120,
    n_runs: int = 3,
    n_offspring: int = 9,
    n_arrays: int = 3,
    noise_level: float = 0.1,
    seed: int = 2013,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> List[NewEaPoint]:
    """Run the classic-vs-new-EA comparison and return one point per cell."""
    points: List[NewEaPoint] = []
    for strategy in ("classic", "two_level"):
        for k in mutation_rates:
            times: List[float] = []
            fitnesses: List[float] = []
            reconfigs: List[float] = []
            for run in range(n_runs):
                run_seed = seed + 97 * run + k
                pair = make_training_pair(
                    "salt_pepper_denoise",
                    size=image_side,
                    seed=run_seed,
                    noise_level=noise_level,
                )
                session = EvolutionSession(
                    PlatformConfig(n_arrays=n_arrays, seed=run_seed, backend=backend),
                    EvolutionConfig(
                        strategy="parallel" if strategy == "classic" else "two_level",
                        n_generations=n_generations,
                        n_offspring=n_offspring,
                        mutation_rate=k,
                        seed=run_seed,
                        fitness_cache=fitness_cache,
                        scenario=scenario,
                        options={} if strategy == "classic" else {"low_mutation_rate": 1},
                    ),
                )
                result = session.evolve(pair).raw
                times.append(result.platform_time_s)
                fitnesses.append(result.overall_best_fitness())
                reconfigs.append(result.n_reconfigurations / max(1, result.n_generations))
            points.append(
                NewEaPoint(
                    strategy=strategy,
                    mutation_rate=k,
                    mean_platform_time_s=float(np.mean(times)),
                    mean_final_fitness=float(np.mean(fitnesses)),
                    mean_reconfigurations_per_generation=float(np.mean(reconfigs)),
                    n_runs=n_runs,
                    n_generations=n_generations,
                )
            )
    return points


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    add_common_options(parser, generations=150)


def _run(args) -> RunArtifact:
    points = new_ea_comparison(
        image_side=args.image_side,
        n_generations=args.generations,
        n_runs=args.runs,
        seed=args.seed,
        backend=args.backend,
        fitness_cache=args.fitness_cache,
        scenario=scenario_from_args(args),
    )
    rows = [
        {"strategy": p.strategy, "k": p.mutation_rate,
         "time_s": p.mean_platform_time_s, "fitness": p.mean_final_fitness,
         "pe_writes_per_gen": p.mean_reconfigurations_per_generation}
        for p in points
    ]
    return RunArtifact(
        kind="new-ea",
        config={"args": {"generations": args.generations, "runs": args.runs,
                         "image_side": args.image_side, "seed": args.seed,
                         "backend": args.backend}},
        results={"rows": rows},
    )


def _render(artifact: RunArtifact) -> None:
    print_table("Figs. 14-15: classic vs two-level-mutation EA",
                artifact.results["rows"],
                ["strategy", "k", "time_s", "fitness", "pe_writes_per_gen"])


register_experiment(ExperimentSpec(
    name="new-ea",
    help="classic vs two-level EA (Figs. 14-15)",
    configure=_configure,
    run=_run,
    render=_render,
))
