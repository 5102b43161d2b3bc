"""Canonical candidate signatures shared by every evaluation cache.

The vectorised engine (:mod:`repro.backends.numpy_engine`) keys its
memos by two conventions defined here:

* **Packed node signatures** — a hash-consed subcircuit is identified by
  ``((west << 21) | north) << 4 | gene`` with :data:`NO_NORTH` as the
  arity-1 sentinel and commutative genes canonicalised smaller-operand
  first (:func:`pack_signature`).  The engine keeps the arithmetic
  inlined in its walk loop for speed; this module is the normative
  definition, and ``tests/backends/test_signature_parity.py`` pins the
  inlined copy to it.
* **Whole-candidate keys** — a genotype's raw gene bytes plus its output
  row (:func:`candidate_key`), the key of the engine's ``cand_intern``
  memo.

On top of these, :func:`fitness_key` derives the *persistent* fitness
signature used by the cross-run cache tier
(:class:`repro.backends.fitness_cache.PersistentFitnessCache`): a SHA-256
over the gene bytes, the array geometry, the training-plane and
reference-image content digests, and the fault taint.  Everything but
the gene bytes is fixed within one evaluation scope, so
:func:`fitness_key_prefix` hashes it once and a caller keying many
candidates copies that hasher per candidate.  The derivation is
documented in ``docs/determinism.md`` and versioned by
:data:`FITNESS_KEY_VERSION` — bump it whenever any keyed ingredient
changes meaning, so stale caches miss instead of lying.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.array.pe_library import N_FUNCTIONS, PEFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.genotype import Genotype

__all__ = [
    "COMMUTATIVE",
    "FITNESS_KEY_VERSION",
    "MAX_NODES",
    "NO_NORTH",
    "array_digest",
    "candidate_bytes",
    "candidate_key",
    "fitness_key",
    "fitness_key_prefix",
    "pack_signature",
]

#: Signature packing: an arity-2 signature packs into one int as
#: ((west << 21) | north) << 4 | gene, so node ids must stay below
#: NO_NORTH (the arity-1 sentinel).  The engine drops a store at the end
#: of a call that took it past MAX_NODES ids and rejects a single call
#: whose worst case would cross the sentinel.
NO_NORTH = (1 << 21) - 1
MAX_NODES = 1 << 20

#: Genes whose operation is commutative: their signatures are
#: canonicalised with the smaller operand id first, so OP(a, b) and
#: OP(b, a) share one cached node (element-wise commutativity makes that
#: bit-exact).  Indexed by gene value.
COMMUTATIVE = tuple(
    gene
    in (
        int(PEFunction.OR),
        int(PEFunction.AND),
        int(PEFunction.XOR),
        int(PEFunction.ADD_SAT),
        int(PEFunction.SUB_ABS),
        int(PEFunction.AVERAGE),
        int(PEFunction.MAX),
        int(PEFunction.MIN),
    )
    for gene in range(N_FUNCTIONS)
)

#: Version tag mixed into every persistent fitness key: bump on any
#: change to the key ingredients or the fitness semantics itself.
FITNESS_KEY_VERSION = 1


def pack_signature(gene: int, west: int, north: int = NO_NORTH) -> int:
    """Pack a hash-cons node signature into one int.

    ``west``/``north`` are non-negative node ids below :data:`NO_NORTH`
    (``north`` defaults to the arity-1 sentinel); commutative genes are
    canonicalised smaller operand first.  This is the normative form of
    the expression the engine inlines in its candidate walk.
    """
    if north != NO_NORTH and north < west and COMMUTATIVE[gene]:
        west, north = north, west
    return ((west << 21) | north) << 4 | gene


def candidate_key(genotype: "Genotype") -> Tuple[bytes, bytes, bytes, int]:
    """The whole-candidate memo key: raw gene bytes plus the output row.

    uint8 gene arrays expose their values directly through ``tobytes()``,
    which doubles as the memo key and makes prefix comparisons C-speed
    slices — the key of the engine's ``cand_intern`` memo.
    """
    return (
        genotype.function_genes.tobytes(),
        genotype.west_mux.tobytes(),
        genotype.north_mux.tobytes(),
        genotype.output_select,
    )


def candidate_bytes(genotype: "Genotype") -> bytes:
    """A candidate's genes as one flat byte string (fixed-width output row)."""
    return b"".join(
        (
            genotype.function_genes.tobytes(),
            genotype.west_mux.tobytes(),
            genotype.north_mux.tobytes(),
            genotype.output_select.to_bytes(4, "little"),
        )
    )


def array_digest(values: np.ndarray) -> str:
    """Content digest of an ndarray: SHA-256 over dtype, shape and bytes."""
    values = np.ascontiguousarray(values)
    digest = hashlib.sha256()
    digest.update(str(values.dtype).encode("ascii"))
    digest.update(repr(values.shape).encode("ascii"))
    digest.update(values.tobytes())
    return digest.hexdigest()


def fitness_key_prefix(
    rows: int,
    cols: int,
    planes_digest: str,
    reference_digest: str,
    fault_taint: bool = False,
):
    """The SHA-256 hasher of a fitness key after its fixed fields.

    Feeding it a candidate's :func:`candidate_bytes` (on a ``copy()``, so
    the prefix can be reused) completes :func:`fitness_key`.
    """
    return hashlib.sha256(
        f"fitness/v{FITNESS_KEY_VERSION}/{rows}x{cols}/{planes_digest}/{reference_digest}"
        f"/taint{int(bool(fault_taint))}/".encode("ascii")
    )


def fitness_key(
    rows: int,
    cols: int,
    planes_digest: str,
    reference_digest: str,
    genotype: "Genotype",
    fault_taint: bool = False,
) -> str:
    """The canonical candidate fitness signature (persistent-tier key).

    SHA-256 hex over the versioned concatenation of the array geometry,
    the training-plane and reference content digests, the fault taint and
    the candidate's gene bytes.  Fault-tainted evaluations embed per-call
    random draws and are never cached, but the taint is part of the
    derivation so a tainted key can never alias a clean one.
    """
    digest = fitness_key_prefix(rows, cols, planes_digest, reference_digest, fault_taint)
    digest.update(candidate_bytes(genotype))
    return digest.hexdigest()
