"""Evolution by imitation after a permanent fault (Fig. 19).

The paper injects a permanent PE-level fault in one array and recovers it
by evolution by imitation from a healthy neighbour, comparing two seeding
strategies for the apprentice: starting from a copy of the (non-faulty)
master genotype versus starting from a random genotype.  The observation
(Fig. 19) is that seeding from the master performs clearly better; the
imitation fitness "should tend to zero (threshold is considered to be
around 100 of MAE, while random values are about 3 orders of magnitude
above this value)".

:func:`imitation_seed_comparison` reproduces the comparison: evolve a
working filter, inject a permanent fault at a given PE position, then run
the imitation recovery with both seeding strategies (same budget, same
input stream) over several repetitions and report the distribution of the
final imitation fitness, plus the pre-recovery fitness of the faulty array
for reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


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
from repro.imaging.metrics import sae

__all__ = ["ImitationPoint", "imitation_seed_comparison"]


@dataclass(frozen=True)
class ImitationPoint:
    """Final imitation fitness of one recovery run."""

    seeding: str                 #: "inherited" (master copy) or "random"
    run: int
    fault_position: Tuple[int, int]
    pre_recovery_fitness: float  #: imitation fitness of the faulty array before recovery
    final_fitness: float         #: imitation fitness after the recovery evolution
    n_generations: int


def imitation_seed_comparison(
    image_side: int = 32,
    noise_level: float = 0.1,
    initial_generations: int = 150,
    recovery_generations: int = 150,
    n_runs: int = 3,
    fault_positions: Optional[Sequence[Tuple[int, int]]] = None,
    n_offspring: int = 9,
    mutation_rate: int = 3,
    seed: int = 2013,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> List[ImitationPoint]:
    """Compare inherited-vs-random seeding of the imitation recovery."""
    points: List[ImitationPoint] = []
    for run in range(n_runs):
        run_seed = seed + 613 * run
        pair = make_training_pair(
            "salt_pepper_denoise", size=image_side, seed=run_seed, noise_level=noise_level
        )
        for seeding in ("inherited", "random"):
            session = EvolutionSession(
                PlatformConfig(n_arrays=3, seed=run_seed, backend=backend),
                EvolutionConfig(
                    strategy="parallel",
                    n_generations=initial_generations,
                    n_offspring=n_offspring,
                    mutation_rate=mutation_rate,
                    seed=run_seed,
                    fitness_cache=fitness_cache,
                    scenario=scenario,
                ),
            )
            initial_result = session.evolve(pair).raw
            platform = session.platform
            working = initial_result.best_genotypes[0]
            platform.configure_all(working)

            # Inject the permanent fault in array 1 and measure the resulting
            # divergence from the healthy master (array 0).  Unless explicit
            # positions were requested, pick a position the configured
            # circuit actually routes through (a fault in an unused PE would
            # be functionally benign), preferring one the apprentice can
            # evolve around.
            if fault_positions:
                fault_position = fault_positions[run % len(fault_positions)]
            else:
                fault_position = platform.find_sensitive_position(1, pair.training)
            platform.inject_permanent_fault(1, *fault_position)
            master_output = platform.acb(0).shadow_process(pair.training)
            faulty_output = platform.acb(1).shadow_process(pair.training)
            pre_recovery = sae(faulty_output, master_output)

            recovery_session = EvolutionSession(
                platform,
                EvolutionConfig(
                    strategy="imitation",
                    n_generations=recovery_generations,
                    n_offspring=n_offspring,
                    mutation_rate=mutation_rate,
                    seed=run_seed + 1,
                    fitness_cache=fitness_cache,
                ),
            )
            result = recovery_session.evolve(
                pair,
                apprentice=1,
                master=0,
                seed_from_master=(seeding == "inherited"),
            ).raw
            points.append(
                ImitationPoint(
                    seeding=seeding,
                    run=run,
                    fault_position=fault_position,
                    pre_recovery_fitness=pre_recovery,
                    final_fitness=result.best_fitness[1],
                    n_generations=result.n_generations,
                )
            )
    return points


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    add_common_options(parser, generations=120)


def _run(args) -> RunArtifact:
    points = imitation_seed_comparison(
        image_side=args.image_side,
        initial_generations=args.generations,
        recovery_generations=args.generations,
        n_runs=args.runs,
        seed=args.seed,
        backend=args.backend,
        fitness_cache=args.fitness_cache,
        scenario=scenario_from_args(args),
    )
    rows = [
        {"seeding": p.seeding, "run": p.run, "fault_pe": str(p.fault_position),
         "pre_recovery": p.pre_recovery_fitness, "final": p.final_fitness}
        for p in points
    ]
    return RunArtifact(
        kind="imitation",
        config={"args": {"generations": args.generations, "runs": args.runs,
                         "image_side": args.image_side, "seed": args.seed,
                         "backend": args.backend}},
        results={"rows": rows},
    )


def _render(artifact: RunArtifact) -> None:
    print_table("Fig. 19: imitation recovery, inherited vs random seeding",
                artifact.results["rows"],
                ["seeding", "run", "fault_pe", "pre_recovery", "final"])


register_experiment(ExperimentSpec(
    name="imitation",
    help="imitation-recovery seeding comparison (Fig. 19)",
    configure=_configure,
    run=_run,
    render=_render,
))
