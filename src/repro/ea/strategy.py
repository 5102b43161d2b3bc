"""(1+λ) Evolution Strategy.

The paper's EA is a simple (1+λ) ES with one parent and λ offspring,
inspired by Cartesian Genetic Programming: each generation, λ offspring
are created by mutating the parent with mutation rate ``k`` genes each;
the best offspring replaces the parent if it is at least as good (the
standard CGP neutral-drift rule, which lets the search walk across fitness
plateaus), otherwise the parent is kept.

The acceptance rule is :func:`select`, the one rule of the repository:
every platform driver of :mod:`repro.core.evolution` and the generic
:class:`OnePlusLambdaES` here pick the next parent through it.

Circuit genotypes evolve only through the platform drivers, which add
what only a PE genotype has: placement on the arrays, the Fig. 11
schedule and the reconfiguration/evaluation timing accounting.  The
paper's single-array system (§III.A) is the one-array parallel run,
``ParallelEvolution(platform, n_arrays=1)`` (or ``strategy="parallel"``
with ``options={"n_arrays": 1}`` through :mod:`repro.api`).
:class:`OnePlusLambdaES` is the same loop over a genome with no PEs to
place, such as the adversarial :class:`~repro.scenarios.FaultScenario`
search of :mod:`repro.scenarios.search`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

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
    accepted: bool


@dataclass
class EvolutionResult:
    """Outcome of an evolution run.

    Attributes
    ----------
    best:
        The final parent genome, the best of the run (the acceptance rule
        never takes a worse offspring).
    best_fitness:
        Its fitness.
    history:
        Per-generation records (best offspring fitness, parent fitness,
        whether the parent was replaced).
    n_generations:
        Number of generations executed.
    n_evaluations:
        Total number of candidate evaluations.
    """

    best: Any
    best_fitness: float
    history: List[GenerationRecord] = field(default_factory=list)
    n_generations: int = 0
    n_evaluations: int = 0


class OnePlusLambdaES:
    """A (1+λ) evolution strategy over any genome.

    Parameters
    ----------
    evaluate_population:
        Maps a sequence of genomes to their (lower-is-better) fitnesses,
        in order.  Each generation's λ offspring are scored through one
        call, and the seed parent through one call as a population of one.
    mutation_operator:
        Variation operator ``operator(parent, mutation_rate, rng)``
        returning the child genome, applied once per offspring in order.
        It must leave ``parent`` unchanged.
    n_offspring:
        λ — offspring per generation.
    mutation_rate:
        k — the operator's mutation strength, at least 1.
    rng:
        Seed or generator; every variation is drawn from it.
    accept_equal:
        Whether an offspring with fitness equal to the parent replaces it
        (CGP neutral drift).  Default ``True``.

    Examples
    --------
    Walk an integer vector to the origin, one ±1 step per mutated gene:

    >>> def step(genome, rate, rng):
    ...     child = list(genome)
    ...     for gene in rng.choice(len(child), size=rate, replace=False):
    ...         child[gene] += int(rng.choice([-1, 1]))
    ...     return tuple(child)
    >>> es = OnePlusLambdaES(
    ...     lambda genomes: [sum(map(abs, genome)) for genome in genomes],
    ...     step, n_offspring=4, mutation_rate=1, rng=0)
    >>> result = es.run(100, seed_genotype=(3, -2, 4), target_fitness=0)
    >>> result.best, result.best_fitness
    ((0, 0, 0), 0.0)
    >>> result.n_evaluations == 1 + 4 * result.n_generations
    True
    """

    def __init__(
        self,
        evaluate_population: Callable[[Sequence[Any]], Sequence[float]],
        mutation_operator: Callable[[Any, int, np.random.Generator], Any],
        n_offspring: int = 8,
        mutation_rate: int = 3,
        rng: Union[int, np.random.Generator, None] = None,
        accept_equal: bool = True,
    ) -> None:
        if n_offspring < 1:
            raise ValueError(f"n_offspring must be >= 1, got {n_offspring}")
        if mutation_rate < 1:
            raise ValueError(f"mutation_rate must be >= 1, got {mutation_rate}")
        self.evaluate_population = evaluate_population
        self.mutation_operator = mutation_operator
        self.n_offspring = n_offspring
        self.mutation_rate = mutation_rate
        self.accept_equal = accept_equal
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    def _score(self, genomes: Sequence[Any]) -> List[float]:
        return [float(value) for value in self.evaluate_population(genomes)]

    def run(
        self,
        n_generations: int,
        seed_genotype: Any,
        target_fitness: Optional[float] = None,
    ) -> EvolutionResult:
        """Run the strategy for ``n_generations`` generations.

        Parameters
        ----------
        n_generations:
            Generation budget.
        seed_genotype:
            The starting parent.
        target_fitness:
            Optional early-stop threshold: evolution stops once the parent
            fitness is at or below this value.

        Returns
        -------
        EvolutionResult
        """
        if n_generations < 0:
            raise ValueError("n_generations must be non-negative")
        parent = seed_genotype
        (parent_fitness,) = self._score([parent])
        history: List[GenerationRecord] = []
        for generation in range(1, n_generations + 1):
            offspring = [
                self.mutation_operator(parent, self.mutation_rate, self.rng)
                for _ in range(self.n_offspring)
            ]
            fitnesses = self._score(offspring)
            chosen = select(fitnesses, parent_fitness, self.accept_equal)
            if chosen is not None:
                parent, parent_fitness = offspring[chosen], fitnesses[chosen]
            history.append(
                GenerationRecord(
                    generation=generation,
                    best_fitness=min(fitnesses),
                    parent_fitness=parent_fitness,
                    accepted=chosen is not None,
                )
            )
            if target_fitness is not None and parent_fitness <= target_fitness:
                break

        return EvolutionResult(
            best=parent,
            best_fitness=parent_fitness,
            history=history,
            n_generations=len(history),
            n_evaluations=1 + len(history) * self.n_offspring,
        )
