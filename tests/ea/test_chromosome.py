"""Tests for the Individual container."""

import math

from repro.array.genotype import Genotype
from repro.ea.chromosome import Individual


class TestIndividual:
    def test_unevaluated_by_default(self, spec, rng):
        individual = Individual(genotype=Genotype.random(spec, rng))
        assert math.isinf(individual.fitness)
