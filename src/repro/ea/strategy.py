"""(1+λ) Evolution Strategy.

The paper's EA is a simple (1+λ) ES with one parent and λ offspring,
inspired by Cartesian Genetic Programming: each generation, λ offspring
are created by mutating the parent with mutation rate ``k`` genes each;
the best offspring replaces the parent if it is at least as good (the
standard CGP neutral-drift rule, which lets the search walk across fitness
plateaus), otherwise the parent is kept.

This module is the *single-array* strategy; the platform-level drivers in
:mod:`repro.core.evolution` reuse it and add the multi-array scheduling
(parallel offspring distribution, cascaded evolution, imitation) and the
reconfiguration/evaluation timing accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.array.genotype import Genotype, GenotypeSpec
from repro.ea.chromosome import Individual
from repro.ea.mutation import mutate_population

__all__ = ["GenerationRecord", "EvolutionResult", "OnePlusLambdaES"]


@dataclass
class GenerationRecord:
    """Per-generation trace entry."""

    generation: int
    best_fitness: float
    parent_fitness: float
    n_reconfigurations: int
    accepted: bool


@dataclass
class EvolutionResult:
    """Outcome of an evolution run.

    Attributes
    ----------
    best:
        The best individual found.
    history:
        Per-generation records (best offspring fitness, parent fitness,
        reconfiguration count, whether the parent was replaced).
    n_generations:
        Number of generations executed.
    n_evaluations:
        Total number of candidate evaluations.
    n_reconfigurations:
        Total number of per-PE partial reconfigurations performed.
    """

    best: Individual
    history: List[GenerationRecord] = field(default_factory=list)
    n_generations: int = 0
    n_evaluations: int = 0
    n_reconfigurations: int = 0

    @property
    def best_fitness(self) -> float:
        """Fitness of the best individual."""
        return self.best.fitness

    def fitness_trace(self) -> np.ndarray:
        """Best-so-far parent fitness per generation as a float array."""
        return np.array([record.parent_fitness for record in self.history], dtype=np.float64)


class OnePlusLambdaES:
    """A (1+λ) evolution strategy over :class:`~repro.array.genotype.Genotype`.

    Parameters
    ----------
    evaluate:
        Callable mapping a genotype to its (lower-is-better) fitness.
    spec:
        Genotype spec used when drawing the random initial parent.
    n_offspring:
        λ — offspring per generation (the paper generates nine chromosomes
        per generation in the multi-array experiments; the single-array
        default here is 8, the λ used in the original single-array system).
    mutation_rate:
        k — genes mutated per offspring.
    rng:
        Seed or generator.
    accept_equal:
        Whether an offspring with fitness equal to the parent replaces it
        (CGP neutral drift).  Default ``True``.
    evaluate_population:
        Optional population evaluator mapping a sequence of genotypes to
        their fitnesses in order (e.g.
        ``FitnessEvaluator.evaluate_population``).  When provided, each
        generation's λ offspring are scored through one call instead of λ
        ``evaluate`` calls.  It must return exactly the values ``evaluate``
        would, so a run's trajectory does not depend on which of the two
        scores it.  The shipped evaluators route
        this hook through the staged :class:`~repro.ea.pipeline.FitnessPipeline`,
        whose cache tiers only ever serve exact values.
    generation_hook:
        Optional hook ``generation_hook(generation)`` fired at the *start*
        of each generation, before its offspring are drawn or evaluated —
        the single-array extension point mirroring where the platform
        drivers fire their compiled scenario events (the shipped scenario
        path itself lives in :mod:`repro.core.evolution`; this hook is
        for consumers driving a bare ES who want the same timing, e.g.
        to inject faults or scrub between generations).  Unlike
        ``callback`` (which observes the selected parent *after* the
        generation), this hook may mutate the environment the evaluator
        measures.
    mutation_operator:
        Optional variation operator ``operator(parent_genotype,
        mutation_rate, rng)`` returning a
        :class:`~repro.ea.mutation.MutationResult`-compatible object
        (``.genotype`` and ``.n_reconfigurations``).  Defaults to the
        array-genotype mutation, drawn for the whole generation at once by
        :func:`~repro.ea.mutation.mutate_population`.  Supplying an
        operator turns the strategy into a generic (1+λ) search over
        arbitrary genotype types (e.g. the adversarial
        :class:`~repro.scenarios.FaultScenario` search in
        :mod:`repro.scenarios.search`); such callers must pass a
        ``seed_genotype`` (there is no generic random initialiser), and
        the operator is applied once per offspring.
    """

    def __init__(
        self,
        evaluate: Callable[[Genotype], float],
        spec: GenotypeSpec = GenotypeSpec(),
        n_offspring: int = 8,
        mutation_rate: int = 3,
        rng: Union[int, np.random.Generator, None] = None,
        accept_equal: bool = True,
        evaluate_population: Optional[
            Callable[[Sequence[Genotype]], Sequence[float]]
        ] = None,
        generation_hook: Optional[Callable[[int], None]] = None,
        mutation_operator: Optional[Callable] = None,
    ) -> None:
        if n_offspring < 1:
            raise ValueError(f"n_offspring must be >= 1, got {n_offspring}")
        if mutation_operator is None and not 1 <= mutation_rate <= spec.n_genes:
            # Checked before any run evaluates or fires a hook, as the
            # platform drivers do; a custom operator defines its own rates.
            raise ValueError(f"mutation_rate must be in [1, {spec.n_genes}], got {mutation_rate}")
        if mutation_rate < 1:
            raise ValueError(f"mutation_rate must be >= 1, got {mutation_rate}")
        self.evaluate = evaluate
        self.spec = spec
        self.n_offspring = n_offspring
        self.mutation_rate = mutation_rate
        self.accept_equal = accept_equal
        self.evaluate_population = evaluate_population
        self.generation_hook = generation_hook
        self.mutation_operator = mutation_operator
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    # ------------------------------------------------------------------ #
    def _offspring(self, parent_genotype) -> list:
        """The generation's λ offspring, drawn in order from ``self.rng``."""
        if self.mutation_operator is None:
            return mutate_population(
                parent_genotype, self.mutation_rate, self.rng, self.n_offspring
            )
        return [
            self.mutation_operator(parent_genotype, self.mutation_rate, self.rng)
            for _ in range(self.n_offspring)
        ]

    def _initial_parent(self, seed_genotype: Optional[Genotype]) -> Individual:
        if seed_genotype is None and self.mutation_operator is not None:
            raise ValueError(
                "a custom mutation_operator requires an explicit seed_genotype "
                "(no generic random initialiser exists)"
            )
        genotype = seed_genotype.copy() if seed_genotype is not None else Genotype.random(
            self.spec, self.rng
        )
        parent = Individual(genotype=genotype, generation=0)
        parent.fitness = self.evaluate(parent.genotype)
        return parent

    def run(
        self,
        n_generations: int,
        seed_genotype: Optional[Genotype] = None,
        target_fitness: Optional[float] = None,
        callback: Optional[Callable[[int, Individual], None]] = None,
    ) -> EvolutionResult:
        """Run the strategy for ``n_generations`` generations.

        Parameters
        ----------
        n_generations:
            Generation budget.
        seed_genotype:
            Optional starting parent ("randomly for the first generation or
            choosing the best candidate of the previous generation", §III.A);
            when omitted a random parent is drawn.
        target_fitness:
            Optional early-stop threshold: evolution stops once the parent
            fitness is at or below this value.
        callback:
            Optional per-generation hook ``callback(generation, parent)``.

        Returns
        -------
        EvolutionResult
        """
        if n_generations < 0:
            raise ValueError("n_generations must be non-negative")
        parent = self._initial_parent(seed_genotype)
        result = EvolutionResult(best=parent.copy())
        result.n_evaluations = 1

        for generation in range(1, n_generations + 1):
            if self.generation_hook is not None:
                self.generation_hook(generation)
            best_offspring: Optional[Individual] = None
            generation_reconfigurations = 0
            # Draw the whole generation, then score it.
            mutations = self._offspring(parent.genotype)
            genotypes = [mutation.genotype for mutation in mutations]
            if self.evaluate_population is not None:
                fitnesses = list(self.evaluate_population(genotypes))
            else:
                fitnesses = [self.evaluate(genotype) for genotype in genotypes]
            for mutation, fitness in zip(mutations, fitnesses):
                child = Individual(
                    genotype=mutation.genotype,
                    generation=generation,
                    reconfigured_pes=mutation.n_reconfigurations,
                )
                child.fitness = float(fitness)
                result.n_evaluations += 1
                generation_reconfigurations += mutation.n_reconfigurations
                if best_offspring is None or child.fitness < best_offspring.fitness:
                    best_offspring = child

            assert best_offspring is not None
            accepted = (
                best_offspring.fitness < parent.fitness
                or (self.accept_equal and best_offspring.fitness == parent.fitness)
            )
            if accepted:
                parent = best_offspring
            result.n_reconfigurations += generation_reconfigurations
            result.n_generations = generation
            result.history.append(
                GenerationRecord(
                    generation=generation,
                    best_fitness=best_offspring.fitness,
                    parent_fitness=parent.fitness,
                    n_reconfigurations=generation_reconfigurations,
                    accepted=accepted,
                )
            )
            if parent.fitness < result.best.fitness:
                result.best = parent.copy()
            if callback is not None:
                callback(generation, parent)
            if target_fitness is not None and parent.fitness <= target_fitness:
                break

        if parent.fitness <= result.best.fitness:
            result.best = parent.copy()
        return result
