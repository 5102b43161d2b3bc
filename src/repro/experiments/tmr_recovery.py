"""TMR operation with fault injection and imitation recovery (Fig. 20).

Fig. 20 plots, against the generation counter, the fitness of the arrays of
a TMR platform through a complete fault/recovery scenario:

1. three arrays run the same evolved circuit in parallel — their fitness
   values are identical;
2. a permanent fault is injected in one array, which is detected as an
   increment of that array's fitness by the fitness voter;
3. an evolution-by-imitation process is launched; after a number of
   generations the faulty array is (in the best cases) completely
   recovered, and the fitness trace returns to the healthy level.

:func:`tmr_fault_recovery_trace` reproduces the scenario end to end on the
simulated platform and returns the per-phase trace of the faulty array's
fitness together with the healthy arrays' (constant) fitness, the detection
outcome of the fitness voter, and whether the pixel-voted mission output
stayed correct throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig, SelfHealingConfig
from repro.api.experiment import (
    ExperimentSpec,
    add_common_options,
    print_table,
    register_experiment,
    scenario_from_args,
)
from repro.api.session import EvolutionSession
from repro.core.self_healing import FaultClass
from repro.imaging.images import make_training_pair
from repro.imaging.metrics import sae

__all__ = ["TmrTracePoint", "TmrRecoveryResult", "tmr_fault_recovery_trace"]


@dataclass(frozen=True)
class TmrTracePoint:
    """One sample of the Fig. 20 trace."""

    generation: int
    phase: str                     #: "healthy", "faulty", "recovery", "recovered"
    faulty_array_fitness: float    #: pattern-image fitness of the (eventually) faulty array
    healthy_array_fitness: float   #: pattern-image fitness of a healthy array


@dataclass
class TmrRecoveryResult:
    """Full outcome of the TMR fault/recovery scenario."""

    trace: List[TmrTracePoint] = field(default_factory=list)
    fault_detected: bool = False
    fault_class: FaultClass = FaultClass.NONE
    detection_fitness_gap: float = 0.0
    recovery_generations: int = 0
    final_imitation_fitness: float = float("inf")
    voted_output_fitness_during_fault: float = float("inf")
    healthy_output_fitness: float = float("inf")

    @property
    def output_masked_during_fault(self) -> bool:
        """Whether the pixel voter kept the mission output at healthy quality."""
        # Allow a small slack: the voted output should be essentially as good
        # as the healthy single-array output even while one array misbehaves.
        return self.voted_output_fitness_during_fault <= 1.05 * self.healthy_output_fitness + 1.0


def tmr_fault_recovery_trace(
    image_side: int = 32,
    noise_level: float = 0.1,
    initial_generations: int = 150,
    recovery_generations: int = 200,
    healthy_phase_samples: int = 10,
    fault_position: Optional[Tuple[int, int]] = None,
    faulty_array: int = 2,
    n_offspring: int = 9,
    mutation_rate: int = 3,
    voter_threshold: float = 0.0,
    seed: int = 2013,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> TmrRecoveryResult:
    """Run the complete Fig. 20 scenario and return its trace.

    ``fault_position`` defaults to a position the deployed circuit actually
    routes through (found by probing), so the injected permanent fault is
    guaranteed to disturb the data path — a fault in a PE the evolved
    circuit does not use would be functionally benign and therefore
    undetectable, which is a valid but uninteresting case for this figure.
    """
    pair = make_training_pair(
        "salt_pepper_denoise", size=image_side, seed=seed, noise_level=noise_level
    )
    session = EvolutionSession(
        PlatformConfig(n_arrays=3, seed=seed, fitness_voter_threshold=voter_threshold,
                       backend=backend),
        EvolutionConfig(
            strategy="parallel",
            n_generations=initial_generations,
            n_offspring=n_offspring,
            mutation_rate=mutation_rate,
            seed=seed,
            fitness_cache=fitness_cache,
            scenario=scenario,
        ),
    )

    # Phase 0: initial evolution (parallel mode) and TMR deployment.
    initial_result = session.evolve(pair).raw
    platform = session.platform
    working = initial_result.best_genotypes[0]
    if fault_position is None:
        fault_position = platform.find_sensitive_position(faulty_array, pair.training)

    healer = session.heal(
        SelfHealingConfig(
            strategy="tmr",
            imitation_generations=recovery_generations,
            n_offspring=n_offspring,
            mutation_rate=mutation_rate,
            seed=seed + 1,
        ),
        calibration_image=pair.training,
        calibration_reference=pair.reference,
    )
    healer.setup(working)

    result = TmrRecoveryResult()
    healthy_values = healer.array_fitnesses()
    healthy_level = healthy_values[(faulty_array + 1) % 3]
    result.healthy_output_fitness = sae(
        platform.acb((faulty_array + 1) % 3).shadow_process(pair.training), pair.reference
    )

    generation = 0
    for _ in range(healthy_phase_samples):
        values = healer.array_fitnesses()
        result.trace.append(
            TmrTracePoint(
                generation=generation,
                phase="healthy",
                faulty_array_fitness=values[faulty_array],
                healthy_array_fitness=healthy_level,
            )
        )
        generation += 1

    # Phase 1: permanent fault injection — detected by the fitness voter.
    platform.inject_permanent_fault(faulty_array, *fault_position)
    values = healer.array_fitnesses()
    vote = healer.vote()
    result.fault_detected = vote.fault_detected
    result.detection_fitness_gap = abs(values[faulty_array] - healthy_level)
    result.voted_output_fitness_during_fault = sae(
        healer.voted_output(pair.training), pair.reference
    )
    result.trace.append(
        TmrTracePoint(
            generation=generation,
            phase="faulty",
            faulty_array_fitness=values[faulty_array],
            healthy_array_fitness=healthy_level,
        )
    )
    generation += 1

    # Phase 2: self-healing cycle (scrub, classify, evolution by imitation).
    report = healer.monitor_and_heal(stream_image=pair.training)
    result.fault_class = report.fault_class
    if report.recovery_result is not None:
        recovery_trace = report.recovery_result.trace(faulty_array)
        result.recovery_generations = len(recovery_trace)
        result.final_imitation_fitness = report.recovery_result.best_fitness[faulty_array]
        for value in recovery_trace:
            # During recovery the trace reports the imitation fitness (MAE
            # against the master's output), which tends towards zero.
            result.trace.append(
                TmrTracePoint(
                    generation=generation,
                    phase="recovery",
                    faulty_array_fitness=float(value),
                    healthy_array_fitness=0.0,
                )
            )
            generation += 1

    # Phase 3: post-recovery — back to pattern-image fitness values.
    values = healer.array_fitnesses()
    for _ in range(max(1, healthy_phase_samples // 2)):
        result.trace.append(
            TmrTracePoint(
                generation=generation,
                phase="recovered",
                faulty_array_fitness=values[faulty_array],
                healthy_array_fitness=healthy_level,
            )
        )
        generation += 1
    return result


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    add_common_options(parser, generations=120)


def _run(args) -> RunArtifact:
    result = tmr_fault_recovery_trace(
        image_side=args.image_side,
        initial_generations=args.generations,
        recovery_generations=args.generations,
        seed=args.seed,
        backend=args.backend,
        fitness_cache=args.fitness_cache,
        scenario=scenario_from_args(args),
    )
    rows = [
        {"generation": p.generation, "phase": p.phase,
         "faulty_fitness": p.faulty_array_fitness,
         "healthy_fitness": p.healthy_array_fitness}
        for p in result.trace
    ]
    return RunArtifact(
        kind="tmr-recovery",
        config={"args": {"generations": args.generations,
                         "image_side": args.image_side, "seed": args.seed,
                         "backend": args.backend}},
        results={
            "rows": rows,
            "fault_detected": result.fault_detected,
            "fault_class": result.fault_class.value,
            "final_imitation_fitness": result.final_imitation_fitness,
        },
    )


def _render(artifact: RunArtifact) -> None:
    print_table("Fig. 20: TMR fault/recovery trace", artifact.results["rows"],
                ["generation", "phase", "faulty_fitness", "healthy_fitness"])
    print(f"fault detected: {artifact.results['fault_detected']}; "
          f"class: {artifact.results['fault_class']}; "
          f"final imitation fitness: {artifact.results['final_imitation_fitness']:.0f}")


register_experiment(ExperimentSpec(
    name="tmr-recovery",
    help="TMR fault/recovery trace (Fig. 20)",
    configure=_configure,
    run=_run,
    render=_render,
))
