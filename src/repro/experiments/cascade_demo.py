"""Three-stage adapted cascade on heavy salt-and-pepper noise (Fig. 18).

The paper's Fig. 18 shows the input and output images of a three-stage
adapted cascade filtering an image corrupted with 40 % salt-and-pepper
noise; the resulting quality is high ("a MAE fitness value of around 8000"
for the 128x128 image) while "the conventional reference filter for such
type of noise ... the median filter ... yields a MAE result which is far
above this one, more than twice the value obtained for just one stage, and
it is not cascadable."

This experiment evolves the adapted cascade with cascaded evolution, then
reports:

* the aggregated MAE of the noisy input, of each cascade stage's output and
  of the single-pass 3x3 median filter baseline;
* the input/clean/filtered images themselves, so the example script can
  save or display them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
from repro.imaging.filters import median_filter
from repro.imaging.images import make_training_pair
from repro.imaging.metrics import sae

__all__ = ["CascadeDemoResult", "three_stage_cascade_demo"]


@dataclass
class CascadeDemoResult:
    """Outcome of the Fig. 18 demonstration."""

    image_side: int
    noise_density: float
    noisy_fitness: float                       #: MAE of the noisy input vs clean
    stage_fitness: List[float] = field(default_factory=list)  #: MAE after each stage
    median_fitness: float = 0.0                #: MAE of the 3x3 median baseline
    images: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def final_fitness(self) -> float:
        """MAE of the full cascade output."""
        return self.stage_fitness[-1] if self.stage_fitness else float("inf")

    @property
    def cascade_beats_median(self) -> bool:
        """Whether the adapted cascade outperforms the median-filter baseline."""
        return self.final_fitness < self.median_fitness


def three_stage_cascade_demo(
    image_side: int = 64,
    noise_density: float = 0.4,
    n_stages: int = 3,
    n_generations: int = 250,
    n_offspring: int = 9,
    mutation_rate: int = 3,
    seed: int = 2013,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> CascadeDemoResult:
    """Evolve and evaluate the three-stage cascade of Fig. 18."""
    pair = make_training_pair(
        "salt_pepper_denoise", size=image_side, seed=seed, noise_level=noise_density
    )
    session = EvolutionSession(
        PlatformConfig(n_arrays=n_stages, seed=seed, backend=backend),
        EvolutionConfig(
            strategy="cascaded",
            n_generations=n_generations,
            n_offspring=n_offspring,
            mutation_rate=mutation_rate,
            seed=seed,
            fitness_cache=fitness_cache,
            scenario=scenario,
            options={
                "fitness_mode": "separate",
                "schedule": "sequential",
                "n_stages": n_stages,
            },
        ),
    )
    session.evolve(pair)
    platform = session.platform

    result = CascadeDemoResult(
        image_side=image_side,
        noise_density=noise_density,
        noisy_fitness=sae(pair.training, pair.reference),
    )
    data = pair.training
    result.images["noisy_input"] = pair.training
    result.images["clean_reference"] = pair.reference
    for stage in range(n_stages):
        data = platform.acb(stage).process(data)
        result.stage_fitness.append(sae(data, pair.reference))
        result.images[f"stage_{stage + 1}_output"] = data
    median_output = median_filter(pair.training, size=3)
    result.median_fitness = sae(median_output, pair.reference)
    result.images["median_baseline"] = median_output
    return result


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    parser.add_argument("--noise", type=float, default=0.4,
                        help="salt-and-pepper density")
    add_common_options(parser, generations=1200, image_side=64)


def _run(args) -> RunArtifact:
    result = three_stage_cascade_demo(
        image_side=args.image_side,
        noise_density=args.noise,
        n_generations=args.generations,
        seed=args.seed,
        backend=args.backend,
        fitness_cache=args.fitness_cache,
        scenario=scenario_from_args(args),
    )
    rows = [{"output": "noisy input", "aggregated_MAE": result.noisy_fitness}]
    rows += [
        {"output": f"cascade stage {i + 1}", "aggregated_MAE": fitness}
        for i, fitness in enumerate(result.stage_fitness)
    ]
    rows.append({"output": "median filter (3x3)", "aggregated_MAE": result.median_fitness})
    return RunArtifact(
        kind="cascade-demo",
        config={"args": {"noise": args.noise, "generations": args.generations,
                         "image_side": args.image_side, "seed": args.seed,
                         "backend": args.backend}},
        results={
            "rows": rows,
            "cascade_beats_median": result.cascade_beats_median,
            "final_fitness": result.final_fitness,
            "median_fitness": result.median_fitness,
        },
    )


def _render(artifact: RunArtifact) -> None:
    print_table("Fig. 18: adapted 3-stage cascade vs median filter",
                artifact.results["rows"], ["output", "aggregated_MAE"])
    print(f"cascade beats median baseline: {artifact.results['cascade_beats_median']}")


register_experiment(ExperimentSpec(
    name="cascade-demo",
    help="3-stage cascade vs median filter (Fig. 18)",
    configure=_configure,
    run=_run,
    render=_render,
))
