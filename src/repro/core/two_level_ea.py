"""The paper's new two-level-mutation evolutionary algorithm (§VI.B).

The evolution time of the classic parallel EA "always depends strongly on
the mutation rate", because every offspring is mutated from the parent with
the nominal rate ``k`` and each mutated function gene costs one partial
reconfiguration.  The new strategy breaks that dependence:

    "the first parallel evaluation of every generation (in this case, the
    first three chromosomes) are created by mutating the selected
    chromosome from the previous generation with the usual mutation rate,
    but the other parallel evaluations of the same generation (six
    chromosomes) are created by mutating the chromosomes of the previously
    generated ones, but these mutations are always done with low mutation
    rate (k=1).  Thus, every evaluated circuit is similar to the previous
    one, and so, fewer reconfigurations are carried out in every
    generation."

Because each array's successive candidates within a generation differ by a
single gene, the number of PE rewrites per generation is dominated by the
first batch only, and evolution time becomes almost flat in ``k``
(Fig. 14) while the chained low-rate mutations explore the neighbourhood of
good candidates more finely, which the paper observes to give equal or
better fitness (Fig. 15).
"""

from __future__ import annotations

from typing import Sequence

from repro.array.genotype import Genotype
from repro.core.evolution import ArrayEvalContext, ParallelEvolution
from repro.ea.mutation import Generation, population_mutator

__all__ = ["TwoLevelMutationEvolution"]


class TwoLevelMutationEvolution(ParallelEvolution):
    """Parallel evolution with the two-level mutation offspring plan.

    All constructor parameters are inherited from
    :class:`~repro.core.evolution.ParallelEvolution`; ``mutation_rate`` is
    the *first-batch* rate ``k``, and the low rate used for the remaining
    batches is ``low_mutation_rate`` (paper: 1).  That includes the
    ``scenario`` fault-timeline hook: the inherited generation loop fires
    the compiled scenario events at the start of every generation, so the
    two-level EA participates in mid-evolution fault campaigns exactly
    like the classic parallel EA (``tests/scenarios/`` covers it).

    The staged fitness pipeline is likewise inherited: offspring are
    evaluated through each context's :class:`~repro.ea.pipeline.FitnessPipeline`
    and its ``fitness_cache`` knob exactly as in the parent class — this
    subclass only changes *which* genotypes are proposed, never how they
    are scored.
    """

    def __init__(self, *args, low_mutation_rate: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n_genes = self.platform.spec.n_genes
        if not 1 <= low_mutation_rate <= n_genes:
            raise ValueError(
                f"low_mutation_rate must be in [1, {n_genes}], got {low_mutation_rate}"
            )
        self.low_mutation_rate = low_mutation_rate

    def _generation_offspring(
        self, parent: Genotype, contexts: Sequence[ArrayEvalContext]
    ) -> Generation:
        """Two-level offspring.

        Batch 0: one offspring per array, mutated from the generation's
        parent with the nominal rate ``k``.  Batches 1..: the offspring
        evaluated on array *j* is a low-rate (``k=1`` by default) mutation
        of the offspring evaluated on array *j* in the *previous* batch, so
        consecutive circuits on the same array differ by very few genes and
        the reconfiguration engine has almost nothing to rewrite.

        Offspring ``o`` of batch 1.. comes from offspring ``o - n_slots``,
        so the whole generation is one ``(source, rate)`` plan handed to the
        shared :class:`~repro.ea.mutation.PopulationMutator`, which draws it
        from the driver's RNG in plan order as repeated
        :func:`~repro.ea.mutation.mutate` calls would.  The source of
        offspring ``o`` is also its predecessor on its slot, so placement
        diffs it against that source.
        """
        n_slots = len(contexts)
        plan = [
            (-1, self.mutation_rate) if position < n_slots
            else (position - n_slots, self.low_mutation_rate)
            for position in range(self.n_offspring)
        ]
        return population_mutator(parent.spec).offspring(parent, plan, self.rng)
