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

:func:`mutate` is the reference operator: one offspring per call, drawing
its gene positions with ``rng.choice`` and each new value with
``rng.integers``.  The drivers build a whole generation at once through
:class:`PopulationMutator`, which draws one block of 32-bit words and
replays NumPy's samplers over it, so its offspring and the generator's
final state are identical to repeated :func:`mutate` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

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


#: One ``next_uint32`` word spans ``[0, _WORD)``.
_WORD = 1 << 32


def _draw_words(rng: np.random.Generator, count: int) -> List[int]:
    """The next ``count`` ``next_uint32`` words of ``rng``, as Python ints.

    ``integers(0, 2**32, dtype=np.uint32)`` returns raw ``next_uint32``
    words, the same words every bounded draw of :func:`mutate` consumes, so
    the block can be replayed in their place.
    """
    return rng.integers(0, _WORD, size=count, dtype=np.uint32).tolist()


def _redraw(words: List[int], pos: int, span: int, rng: np.random.Generator) -> Tuple[int, int]:
    """Lemire's retry loop after a rejected word; returns ``(product, pos)``.

    A rejection costs one word the block was not sized for, so each retry
    appends one freshly drawn word to the end of the block.
    """
    threshold = _WORD % span
    while True:
        words.extend(_draw_words(rng, 1))
        product = words[pos] * span
        pos += 1
        if product & 0xFFFFFFFF >= threshold:
            return product, pos


class PopulationMutator:
    """One generation of mutations from one block of generator words.

    :func:`mutate` spends one ``rng.choice`` and up to ``k`` scalar
    ``rng.integers`` calls per offspring, and each call costs microseconds
    of argument handling.  This kernel instead draws the whole generation's
    words with one ``rng.integers(0, 2**32, size=N, dtype=np.uint32)`` call
    and replays NumPy's samplers over them in plain Python:

    * ``choice(n, k, replace=False)`` is Floyd's sampler (pick ``j`` is a
      bounded draw on ``[0, j]``; no word for ``j == 0``) followed by a
      Fisher–Yates shuffle of the picks for ``i = k-1 .. 1``; for
      ``n > 10000`` and ``k > n // 50`` it is instead a tail shuffle of
      ``arange(n)`` for ``i = n-1 .. max(n-k, 1)``;
    * ``integers(0, a - 1)`` is one bounded draw on ``[0, a - 2]`` (no word
      for ``a == 2``);
    * every bounded draw is Lemire's multiply-and-reject on one
      ``next_uint32`` word.

    ``N`` is the number of words the reference calls consume when no draw
    is rejected (a lower bound when some alphabets have at most two
    values).  A rejection or a larger need appends exactly the missing
    words, so the block is never over-drawn: offspring, ``mutated_indices``,
    ``changed_pe_positions`` and the final ``bit_generator.state`` are
    identical to repeated :func:`mutate` calls
    (``tests/core/test_population_parity.py`` and
    ``tests/property/test_population_properties.py`` pin this against the
    installed NumPy).

    Children are rows of one ``(λ, n_genes - 1)`` uint8 matrix holding
    every gene but the output select (a row index, kept as an ``int``);
    their genotypes are unvalidated views of those rows.  One mutator per
    :class:`~repro.array.genotype.GenotypeSpec` is cached by
    :func:`population_mutator`.
    """

    def __init__(self, spec: GenotypeSpec) -> None:
        self.spec = spec
        self.n_genes = spec.n_genes
        #: Alphabet size per flat gene index (plain list: int indexing is hot).
        self.alphabets: List[int] = [
            spec.gene_alphabet_size(index) for index in range(spec.n_genes)
        ]
        self._pe_positions = [divmod(index, spec.cols) for index in range(spec.n_pes)]
        #: Genes whose new value takes no word (alphabets of at most two values).
        self._n_wordless = sum(1 for alphabet in self.alphabets if alphabet <= 2)
        #: Lemire rejection threshold ``2**32 mod span`` for each draw span.
        self._thresholds = [0] + [
            _WORD % span for span in range(1, max(self.n_genes, *self.alphabets) + 1)
        ]
        #: ``choice`` shuffles a tail of ``arange(n)`` for rates above this.
        self._tail_shuffle_above = self.n_genes // 50 if self.n_genes > 10000 else self.n_genes

    def _budget(self, n_mutations: int) -> int:
        """Words one offspring consumes when no draw is rejected (a lower
        bound when some alphabets are wordless)."""
        n, k = self.n_genes, n_mutations
        if k > self._tail_shuffle_above:
            picks = n - max(n - k, 1)
        else:
            picks = (k - (k == n)) + (k - 1)
        return picks + max(k - self._n_wordless, 0)

    def _tail_shuffle(
        self, n_mutations: int, words: List[int], pos: int, rng: np.random.Generator
    ) -> Tuple[List[int], int]:
        """``choice``'s large-population branch: shuffle the tail of ``arange(n)``."""
        n, thresholds = self.n_genes, self._thresholds
        genes = list(range(n))
        for i in range(n - 1, max(n - n_mutations, 1) - 1, -1):
            product = words[pos] * (i + 1)
            pos += 1
            if product & 0xFFFFFFFF < thresholds[i + 1]:
                product, pos = _redraw(words, pos, i + 1, rng)
            j = product >> 32
            genes[i], genes[j] = genes[j], genes[i]
        return genes[n - n_mutations :], pos

    def offspring(
        self,
        parent: Genotype,
        plan: Sequence[Tuple[int, int]],
        rng: np.random.Generator,
    ) -> List["MutationResult"]:
        """Mutate one generation, bit-exact against repeated :func:`mutate`.

        ``plan`` holds one ``(source, rate)`` pair per offspring, in draw
        order: ``source`` is ``-1`` for ``parent`` or the plan index of an
        earlier offspring, and ``rate`` is that offspring's ``k``.  Offspring
        ``o`` equals ``mutate(<source genotype>, rate, rng)`` called in plan
        order, and ``rng`` ends in the same state.
        """
        n = self.n_genes
        n_words = 0
        for position, (source, rate) in enumerate(plan):
            if not 1 <= rate <= n:
                raise ValueError(f"n_mutations must be in [1, {n}], got {rate}")
            if not -1 <= source < position:
                raise ValueError(
                    f"offspring {position} must come from the parent (-1) or an "
                    f"earlier offspring, got source {source}"
                )
            n_words += self._budget(rate)
        spec = self.spec
        n_pes, rows, width = spec.n_pes, spec.rows, n - 1
        # Every gene but the output select (a row index, which may exceed a
        # byte) as one byte string per child.
        parent_genes = bytearray(
            np.concatenate((parent.function_genes.reshape(-1), parent.west_mux, parent.north_mux))
        )
        parent_output = int(parent.output_select)

        alphabets, thresholds = self.alphabets, self._thresholds
        pe_positions, n_wordless = self._pe_positions, self._n_wordless
        tail_shuffle_above = self._tail_shuffle_above
        words = _draw_words(rng, n_words)
        pos = 0
        children: List[bytearray] = []
        outputs: List[int] = []
        changes: List[Tuple[List[int], List[Tuple[int, int]]]] = []
        for source, k in plan:
            if k > tail_shuffle_above:
                picks, pos = self._tail_shuffle(k, words, pos, rng)
            else:
                # Floyd's sampler: pick j is uniform on [0, j] (no word for
                # j == 0); a pick already taken is replaced by j.
                picks = [0] if k == n else []
                for j in range(max(n - k, 1), n):
                    product = words[pos] * (j + 1)
                    pos += 1
                    if product & 0xFFFFFFFF < thresholds[j + 1]:
                        product, pos = _redraw(words, pos, j + 1, rng)
                    value = product >> 32
                    picks.append(j if value in picks else value)
                # choice() then shuffles the picks; mutate() sorts them, so
                # only the words the shuffle consumes matter here.
                for span in range(k, 1, -1):
                    product = words[pos] * span
                    pos += 1
                    if product & 0xFFFFFFFF < thresholds[span]:
                        product, pos = _redraw(words, pos, span, rng)
            picks.sort()

            if n_wordless:
                missing = sum(alphabets[index] > 2 for index in picks) - max(k - n_wordless, 0)
                if missing:
                    words.extend(_draw_words(rng, missing))
            if source < 0:
                genes, output = parent_genes[:], parent_output
            else:
                genes, output = children[source][:], outputs[source]
            changed_pe_positions: List[Tuple[int, int]] = []
            for index in picks:
                alphabet = alphabets[index]
                if alphabet <= 1:
                    continue  # degenerate alphabet (1x1 arrays): nothing to change
                value = 0
                if alphabet > 2:
                    product = words[pos] * (alphabet - 1)
                    pos += 1
                    if product & 0xFFFFFFFF < thresholds[alphabet - 1]:
                        product, pos = _redraw(words, pos, alphabet - 1, rng)
                    value = product >> 32
                # Draw a *different* value so every mutation is effective.
                if index < width:
                    genes[index] = value + (value >= genes[index])
                    if index < n_pes:
                        changed_pe_positions.append(pe_positions[index])
                else:
                    output = value + (value >= output)
            children.append(genes)
            outputs.append(output)
            changes.append((picks, changed_pe_positions))

        matrix = np.frombuffer(bytearray().join(children), dtype=np.uint8)
        matrix = matrix.reshape(len(children), width)
        functions = matrix[:, :n_pes].reshape(len(children), rows, spec.cols)
        west = matrix[:, n_pes : n_pes + rows]
        north = matrix[:, n_pes + rows :]
        results: List[MutationResult] = []
        for row, (picks, changed_pe_positions) in enumerate(changes):
            genotype = object.__new__(Genotype)
            genotype.spec = spec
            genotype.function_genes = functions[row]
            genotype.west_mux = west[row]
            genotype.north_mux = north[row]
            genotype.output_select = outputs[row]
            results.append(MutationResult(genotype, picks, changed_pe_positions))
        return results


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
    range(n_offspring)]``, drawn from one block of generator words by
    :class:`PopulationMutator`.  This is the offspring-construction half of
    the drivers' generation step.
    """
    if n_offspring < 1:
        raise ValueError(f"n_offspring must be >= 1, got {n_offspring}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return population_mutator(parent.spec).offspring(
        parent, [(-1, n_mutations)] * n_offspring, rng
    )
