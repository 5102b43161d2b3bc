"""Mutation operators.

The paper characterises its mutation operator by the *mutation rate* ``k``:
the number of genes changed per offspring (the x-axis of Figs. 12–15 is
``k = 1, 3, 5``).  A mutation picks ``k`` distinct gene positions uniformly
at random over the whole genotype (function genes, input-mux genes and the
output-select gene) and replaces each with a different random value from
its alphabet, so every mutation is effective.

The operator also reports which *function* genes changed, because only
those require a partial reconfiguration — the quantity that drives
evolution time in the intrinsic-evolution timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.array.genotype import GeneKind, Genotype, GenotypeSpec

__all__ = [
    "MutationResult",
    "mutate",
    "mutate_population",
    "population_mutator",
    "PopulationMutator",
]


@dataclass
class MutationResult:
    """Outcome of one mutation.

    Attributes
    ----------
    genotype:
        The mutated offspring genotype (a new object; the parent is unchanged).
    mutated_indices:
        Flat gene indices that were changed.
    changed_pe_positions:
        (row, col) positions whose function gene changed — i.e. the PEs the
        reconfiguration engine must rewrite to place this offspring.
    """

    genotype: Genotype
    mutated_indices: List[int] = field(default_factory=list)
    changed_pe_positions: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def n_reconfigurations(self) -> int:
        """Number of per-PE partial reconfigurations required."""
        return len(self.changed_pe_positions)


def mutate(
    parent: Genotype,
    n_mutations: int,
    rng: Union[int, np.random.Generator, None] = None,
) -> MutationResult:
    """Create an offspring by mutating ``n_mutations`` genes of ``parent``.

    Parameters
    ----------
    parent:
        Parent genotype (not modified).
    n_mutations:
        The mutation rate ``k``: number of distinct genes to change.  Must
        be between 1 and the total gene count.
    rng:
        Seed or :class:`numpy.random.Generator`.

    Returns
    -------
    MutationResult
        The offspring and the bookkeeping needed by the timing model.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    spec = parent.spec
    if not 1 <= n_mutations <= spec.n_genes:
        raise ValueError(
            f"n_mutations must be in [1, {spec.n_genes}], got {n_mutations}"
        )

    child = parent.copy()
    flat = child.to_flat()
    indices = rng.choice(spec.n_genes, size=n_mutations, replace=False)

    changed_pe_positions: List[Tuple[int, int]] = []
    for index in sorted(int(i) for i in indices):
        alphabet = spec.gene_alphabet_size(index)
        current = int(flat[index])
        if alphabet <= 1:
            continue  # degenerate alphabet (1x1 arrays): nothing to change
        # Draw a *different* value so every mutation is effective.
        new_value = int(rng.integers(0, alphabet - 1))
        if new_value >= current:
            new_value += 1
        flat[index] = new_value
        if spec.gene_kind(index) == GeneKind.FUNCTION:
            changed_pe_positions.append((index // spec.cols, index % spec.cols))

    offspring = Genotype.from_flat(spec, flat)
    return MutationResult(
        genotype=offspring,
        mutated_indices=[int(i) for i in sorted(int(i) for i in indices)],
        changed_pe_positions=changed_pe_positions,
    )


class PopulationMutator:
    """Batched mutation over flat gene vectors, bit-exact against :func:`mutate`.

    The evolution drivers' generation step creates a whole generation of
    offspring before evaluating any of them, which makes the per-call
    overhead of :func:`mutate` (genotype copy, flat round-trip, per-gene
    alphabet lookups, full validation of values that are valid by
    construction) the dominant cost of a generation.  This helper hoists
    every per-spec computation out of the loop and builds offspring through
    an unvalidated constructor, while drawing from the generator with
    *exactly the same calls in exactly the same order* as repeated
    :func:`mutate` invocations — so a population-mutated run consumes the
    RNG stream identically to a per-candidate run and stays byte-identical
    (``tests/core/test_population_parity.py`` enforces this).

    Instances are cheap and stateless apart from the precomputed tables;
    one per :class:`~repro.array.genotype.GenotypeSpec` is cached by
    :func:`mutate_population`.
    """

    def __init__(self, spec: GenotypeSpec) -> None:
        self.spec = spec
        self.n_genes = spec.n_genes
        self.n_pes = spec.n_pes
        self.rows = spec.rows
        self.cols = spec.cols
        #: Alphabet size per flat gene index (plain list: int indexing is hot).
        self.alphabets: List[int] = [
            spec.gene_alphabet_size(index) for index in range(spec.n_genes)
        ]

    # ------------------------------------------------------------------ #
    def to_flat(self, genotype: Genotype) -> np.ndarray:
        """Flat int64 gene vector of ``genotype`` (same layout as ``Genotype.to_flat``)."""
        flat = np.empty(self.n_genes, dtype=np.int64)
        n_pes, rows, cols = self.n_pes, self.rows, self.cols
        flat[:n_pes] = genotype.function_genes.reshape(-1)
        flat[n_pes : n_pes + rows] = genotype.west_mux
        flat[n_pes + rows : n_pes + rows + cols] = genotype.north_mux
        flat[-1] = genotype.output_select
        return flat

    def from_flat(self, flat: np.ndarray) -> Genotype:
        """Build a genotype from a mutation-produced flat vector.

        Values coming out of :meth:`mutate_flat` are inside their alphabets
        by construction, so the validating ``__post_init__`` round-trip of
        ``Genotype.from_flat`` is skipped.
        """
        n_pes, rows, cols = self.n_pes, self.rows, self.cols
        compact = flat.astype(np.uint8)  # one cast; the gene arrays are views of it
        genotype = object.__new__(Genotype)
        genotype.spec = self.spec
        genotype.function_genes = compact[:n_pes].reshape(rows, cols)
        genotype.west_mux = compact[n_pes : n_pes + rows]
        genotype.north_mux = compact[n_pes + rows : n_pes + rows + cols]
        genotype.output_select = int(flat[-1])
        return genotype

    def mutate_flat(
        self, parent_flat: np.ndarray, n_mutations: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, "MutationResult"]:
        """One offspring from a parent flat vector; returns (child_flat, result).

        Draws ``rng.choice`` + per-gene ``rng.integers`` exactly as
        :func:`mutate` does, so both paths consume the same stream.
        """
        if not 1 <= n_mutations <= self.n_genes:
            raise ValueError(
                f"n_mutations must be in [1, {self.n_genes}], got {n_mutations}"
            )
        flat = parent_flat.copy()
        indices = rng.choice(self.n_genes, size=n_mutations, replace=False)
        mutated = indices.tolist()
        mutated.sort()
        changed_pe_positions: List[Tuple[int, int]] = []
        alphabets = self.alphabets
        n_pes, cols = self.n_pes, self.cols
        for index in mutated:
            alphabet = alphabets[index]
            if alphabet <= 1:
                continue  # degenerate alphabet (1x1 arrays): nothing to change
            current = int(flat[index])
            new_value = int(rng.integers(0, alphabet - 1))
            if new_value >= current:
                new_value += 1
            flat[index] = new_value
            if index < n_pes:
                changed_pe_positions.append((index // cols, index % cols))
        result = MutationResult(
            genotype=self.from_flat(flat),
            mutated_indices=mutated,
            changed_pe_positions=changed_pe_positions,
        )
        return flat, result

    def offspring(
        self,
        parent: Genotype,
        n_mutations: int,
        rng: np.random.Generator,
        n_offspring: int,
    ) -> List["MutationResult"]:
        """``n_offspring`` independent mutations of ``parent``, in draw order."""
        parent_flat = self.to_flat(parent)
        return [
            self.mutate_flat(parent_flat, n_mutations, rng)[1]
            for _ in range(n_offspring)
        ]


#: One mutator per genotype spec (specs are tiny frozen dataclasses).
_MUTATORS: Dict[GenotypeSpec, PopulationMutator] = {}


def population_mutator(spec: GenotypeSpec) -> PopulationMutator:
    """The shared :class:`PopulationMutator` for ``spec``."""
    mutator = _MUTATORS.get(spec)
    if mutator is None:
        mutator = _MUTATORS[spec] = PopulationMutator(spec)
    return mutator


def mutate_population(
    parent: Genotype,
    n_mutations: int,
    rng: Union[int, np.random.Generator, None],
    n_offspring: int,
) -> List[MutationResult]:
    """A whole generation of offspring in one call, bit-exact vs :func:`mutate`.

    Returns the same :class:`MutationResult` objects (same genotypes, same
    ``mutated_indices``/``changed_pe_positions``, same RNG stream
    consumption) as ``[mutate(parent, n_mutations, rng) for _ in
    range(n_offspring)]``, with the per-call genotype plumbing hoisted out
    of the loop.  This is the offspring-construction half of the
    drivers' generation step.
    """
    if n_offspring < 1:
        raise ValueError(f"n_offspring must be >= 1, got {n_offspring}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return population_mutator(parent.spec).offspring(parent, n_mutations, rng, n_offspring)
