"""(1+λ) Evolution Strategy.

The paper's EA is a simple (1+λ) ES with one parent and λ offspring,
inspired by Cartesian Genetic Programming: each generation, λ offspring
are created by mutating the parent with mutation rate ``k`` genes each;
the best offspring replaces the parent if it is at least as good (the
standard CGP neutral-drift rule, which lets the search walk across fitness
plateaus), otherwise the parent is kept.

The acceptance rule is :func:`select`, the one rule of the repository:
:class:`OnePlusLambdaES` here (the single-array strategy, and the outer
loop of the adversarial scenario search) and every platform driver of
:mod:`repro.core.evolution` pick the next parent through it.  The drivers
add what only a PE genotype has: placement on the arrays, the Fig. 11
schedule and the reconfiguration/evaluation timing accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.array.genotype import Genotype, GenotypeSpec
from repro.ea.chromosome import Individual
from repro.ea.mutation import mutate_population

__all__ = ["GenerationRecord", "EvolutionResult", "OnePlusLambdaES", "select"]


def select(
    fitnesses: Sequence[float], parent_fitness: float, accept_equal: bool
) -> Optional[int]:
    """The (1+λ) acceptance rule: which offspring, if any, replaces the parent.

    Returns the index of the first strictly-best offspring when it is
    better than the parent, or equal to it with ``accept_equal`` (CGP
    neutral drift); ``None`` keeps the parent.  Fitness is lower-is-better.
    """
    best = min(fitnesses)
    if best < parent_fitness or (accept_equal and best == parent_fitness):
        return fitnesses.index(best)
    return None


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
        The final parent, the best individual of the run (the acceptance
        rule never takes a worse offspring).
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
    mutation_operator:
        Optional variation operator ``operator(parent_genotype,
        mutation_rate, rng)`` returning the child genotype.  Defaults to
        the array-genotype mutation, drawn for the whole generation at
        once by :func:`~repro.ea.mutation.mutate_population`.  Supplying
        an operator turns the strategy into a generic (1+λ) search over
        arbitrary genotype types (e.g. the adversarial
        :class:`~repro.scenarios.FaultScenario` search in
        :mod:`repro.scenarios.search`); such callers must pass a
        ``seed_genotype`` (there is no generic random initialiser), the
        operator is applied once per offspring, and its offspring record
        no reconfigurations.  The final parent's ``copy()`` becomes
        :attr:`EvolutionResult.best`.
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
        mutation_operator: Optional[Callable] = None,
    ) -> None:
        if n_offspring < 1:
            raise ValueError(f"n_offspring must be >= 1, got {n_offspring}")
        if mutation_operator is None and not 1 <= mutation_rate <= spec.n_genes:
            # Checked before any run evaluates, as the platform drivers
            # do; a custom operator defines its own rates.
            raise ValueError(f"mutation_rate must be in [1, {spec.n_genes}], got {mutation_rate}")
        if mutation_rate < 1:
            raise ValueError(f"mutation_rate must be >= 1, got {mutation_rate}")
        self.evaluate = evaluate
        self.spec = spec
        self.n_offspring = n_offspring
        self.mutation_rate = mutation_rate
        self.accept_equal = accept_equal
        self.evaluate_population = evaluate_population
        self.mutation_operator = mutation_operator
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    # ------------------------------------------------------------------ #
    def _offspring(self, parent) -> Tuple[list, int]:
        """The generation's λ offspring, drawn in order from ``self.rng``,
        and the reconfigurations they cost."""
        if self.mutation_operator is None:
            generation = mutate_population(
                parent, self.mutation_rate, self.rng, self.n_offspring
            )
            return (
                [mutation.genotype for mutation in generation],
                sum(mutation.n_reconfigurations for mutation in generation),
            )
        return [
            self.mutation_operator(parent, self.mutation_rate, self.rng)
            for _ in range(self.n_offspring)
        ], 0

    def _initial_parent(self, seed_genotype: Optional[Genotype]):
        if seed_genotype is not None:
            return seed_genotype
        if self.mutation_operator is not None:
            raise ValueError(
                "a custom mutation_operator requires an explicit seed_genotype "
                "(no generic random initialiser exists)"
            )
        return Genotype.random(self.spec, self.rng)

    def run(
        self,
        n_generations: int,
        seed_genotype: Optional[Genotype] = None,
        target_fitness: Optional[float] = None,
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

        Returns
        -------
        EvolutionResult
        """
        if n_generations < 0:
            raise ValueError("n_generations must be non-negative")
        parent = self._initial_parent(seed_genotype)
        parent_fitness = self.evaluate(parent)
        history: List[GenerationRecord] = []
        for generation in range(1, n_generations + 1):
            genotypes, n_reconfigurations = self._offspring(parent)
            if self.evaluate_population is not None:
                fitnesses = [float(value) for value in self.evaluate_population(genotypes)]
            else:
                fitnesses = [float(self.evaluate(genotype)) for genotype in genotypes]
            chosen = select(fitnesses, parent_fitness, self.accept_equal)
            if chosen is not None:
                parent, parent_fitness = genotypes[chosen], fitnesses[chosen]
            history.append(
                GenerationRecord(
                    generation=generation,
                    best_fitness=min(fitnesses),
                    parent_fitness=parent_fitness,
                    n_reconfigurations=n_reconfigurations,
                    accepted=chosen is not None,
                )
            )
            if target_fitness is not None and parent_fitness <= target_fitness:
                break

        return EvolutionResult(
            best=Individual(genotype=parent.copy(), fitness=parent_fitness),
            history=history,
            n_generations=len(history),
            n_evaluations=1 + len(history) * self.n_offspring,
            n_reconfigurations=sum(record.n_reconfigurations for record in history),
        )
