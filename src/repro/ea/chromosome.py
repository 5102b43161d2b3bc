"""Individuals: a genotype plus its evaluated fitness.

:class:`~repro.ea.strategy.OnePlusLambdaES` reports its final parent as
one (:attr:`~repro.ea.strategy.EvolutionResult.best`); the search itself
keeps plain genotypes and fitness lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.array.genotype import Genotype

__all__ = ["Individual"]


@dataclass
class Individual:
    """A candidate solution and its evaluation result.

    Attributes
    ----------
    genotype:
        The candidate circuit description.
    fitness:
        Aggregated MAE fitness (lower is better); ``inf`` until evaluated.
    """

    genotype: Genotype
    fitness: float = math.inf
