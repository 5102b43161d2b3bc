"""Evolutionary-algorithm substrate.

Implements the pieces of the (1+λ) Evolution Strategy used by the paper
("getting inspiration from Cartesian Genetic Programming (CGP), a simple
(1+λ) Evolution Strategy with 1 parent and λ offspring has been
implemented", §III.A) that all the evolution modes of the multi-array
platform share: the mutation operators, the staged fitness pipeline and
the one acceptance rule, :func:`~repro.ea.strategy.select`.

Circuit genotypes evolve through the platform drivers of
:mod:`repro.core.evolution`; the paper's single-array system is their
one-array parallel run.  :class:`OnePlusLambdaES` is the same (1+λ) loop
over a genome without PEs (the adversarial scenario search).  The paper's
new two-level-mutation EA — which is specific to the multi-array platform
because it exists to reduce the number of partial reconfigurations per
generation — lives in :mod:`repro.core.two_level_ea`.
"""

from repro.ea.mutation import MutationResult, mutate
from repro.ea.pipeline import FitnessPipeline, resolve_persistent_cache
from repro.ea.strategy import EvolutionResult, GenerationRecord, OnePlusLambdaES

__all__ = [
    "FitnessPipeline",
    "resolve_persistent_cache",
    "MutationResult",
    "mutate",
    "EvolutionResult",
    "GenerationRecord",
    "OnePlusLambdaES",
]
