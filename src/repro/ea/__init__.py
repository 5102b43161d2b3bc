"""Evolutionary-algorithm substrate.

Implements the (1+λ) Evolution Strategy used by the paper ("getting
inspiration from Cartesian Genetic Programming (CGP), a simple (1+λ)
Evolution Strategy with 1 parent and λ offspring has been implemented",
§III.A), together with the mutation operators and fitness helpers shared by
all the evolution modes of the multi-array platform.

The *classic* EA lives here; the paper's new two-level-mutation EA — which
is specific to the multi-array platform because it exists to reduce the
number of partial reconfigurations per generation — lives in
:mod:`repro.core.two_level_ea`.
"""

from repro.ea.chromosome import Individual
from repro.ea.fitness import FitnessEvaluator
from repro.ea.mutation import MutationResult, mutate
from repro.ea.pipeline import FitnessPipeline, resolve_persistent_cache
from repro.ea.strategy import EvolutionResult, GenerationRecord, OnePlusLambdaES

__all__ = [
    "Individual",
    "FitnessEvaluator",
    "FitnessPipeline",
    "resolve_persistent_cache",
    "MutationResult",
    "mutate",
    "EvolutionResult",
    "GenerationRecord",
    "OnePlusLambdaES",
]
