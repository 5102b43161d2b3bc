"""Parity of the shared memo-key conventions (`repro.backends.signature`).

The numpy engine inlines the packed-signature arithmetic in its
candidate walk for speed; :mod:`repro.backends.signature` is the
normative definition.  This suite pins the inlined copy to it: the
packing expression itself, the whole-candidate ``cand_intern`` keys the
engine interns under, and the sensitivity of the persistent fitness-key
derivation.
"""

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends.numpy_engine import NumpyBackend
from repro.backends.signature import (
    COMMUTATIVE,
    FITNESS_KEY_VERSION,
    NO_NORTH,
    array_digest,
    candidate_bytes,
    candidate_key,
    fitness_key,
    pack_signature,
)


@pytest.fixture
def workload():
    rng = np.random.default_rng(11)
    image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    reference = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    genotypes = [Genotype.random(rng=np.random.default_rng(s)) for s in range(6)]
    return extract_windows(image), reference, genotypes


# --------------------------------------------------------------------------- #
# The packing expression: normative helper vs the engine's inlined form
# --------------------------------------------------------------------------- #
class TestPackSignature:
    def test_matches_inlined_arity2_form(self):
        """pack_signature must equal the exact expression the numpy engine's
        walk loop inlines (commutative swap included)."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            gene = int(rng.integers(0, len(COMMUTATIVE)))
            vid = int(rng.integers(0, NO_NORTH - 1))
            nid = int(rng.integers(0, NO_NORTH - 1))
            if nid < vid and COMMUTATIVE[gene]:
                expected = ((nid << 21) | vid) << 4 | gene
            else:
                expected = ((vid << 21) | nid) << 4 | gene
            assert pack_signature(gene, vid, nid) == expected

    def test_matches_inlined_arity1_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            gene = int(rng.integers(0, len(COMMUTATIVE)))
            vid = int(rng.integers(0, NO_NORTH - 1))
            expected = ((vid << 21) | NO_NORTH) << 4 | gene
            assert pack_signature(gene, vid) == expected
            assert pack_signature(gene, vid, NO_NORTH) == expected

    def test_commutative_canonicalisation_shares_nodes(self):
        gene = next(g for g, c in enumerate(COMMUTATIVE) if c)
        assert pack_signature(gene, 7, 3) == pack_signature(gene, 3, 7)
        gene = next(g for g, c in enumerate(COMMUTATIVE) if not c)
        assert pack_signature(gene, 7, 3) != pack_signature(gene, 3, 7)

    def test_signatures_are_injective_over_node_ids(self):
        """Distinct (gene, operands) triples (commutativity aside) must pack
        to distinct ints — the hash-cons correctness precondition."""
        seen = set()
        for gene in (0, 1):
            for west in range(8):
                for north in list(range(8)) + [NO_NORTH]:
                    canonical = pack_signature(gene, west, north)
                    seen.add(canonical)
        # 2 genes x (8*8 arity-2, canonicalised when commutative, + 8 arity-1)
        expected = sum(
            (36 if COMMUTATIVE[gene] else 64) + 8 for gene in (0, 1)
        )
        assert len(seen) == expected


# --------------------------------------------------------------------------- #
# Whole-candidate memo keys: the engine interns under candidate_key
# --------------------------------------------------------------------------- #
class TestCandidateKeyParity:
    def test_engines_intern_identical_candidate_keys(self, workload):
        planes, reference, genotypes = workload
        expected = {candidate_key(genotype) for genotype in genotypes}

        numpy_backend = NumpyBackend()
        numpy_array = SystolicArray(backend=numpy_backend)
        numpy_array.evaluate_population(planes, genotypes, reference)
        numpy_store = numpy_backend._stores[id(planes)]
        assert set(numpy_store.cand_intern) == expected

    def test_candidate_key_distinguishes_every_gene_field(self):
        base = Genotype.identity()
        for mutate in (
            lambda g: g.function_genes.__setitem__((0, 0), g.function_genes[0, 0] ^ 1),
            lambda g: g.west_mux.__setitem__(0, (int(g.west_mux[0]) + 1) % 3),
            lambda g: g.north_mux.__setitem__(0, (int(g.north_mux[0]) + 1) % 3),
        ):
            other = base.copy()
            mutate(other)
            assert candidate_key(other) != candidate_key(base)
        shifted = base.copy()
        shifted.output_select = (base.output_select + 1) % 4
        assert candidate_key(shifted) != candidate_key(base)

    def test_candidate_bytes_is_flat_and_stable(self):
        genotype = Genotype.random(rng=np.random.default_rng(3))
        flat = candidate_bytes(genotype)
        assert flat == candidate_bytes(genotype.copy())
        fg, w, n, out = candidate_key(genotype)
        assert flat == fg + w + n + out.to_bytes(4, "little")


# --------------------------------------------------------------------------- #
# Persistent fitness keys: every ingredient must change the digest
# --------------------------------------------------------------------------- #
class TestFitnessKey:
    def test_sensitive_to_every_ingredient(self, workload):
        planes, reference, genotypes = workload
        pd, rd = array_digest(planes), array_digest(reference)
        base = fitness_key(4, 4, pd, rd, genotypes[0])
        assert len(base) == 64 and int(base, 16) >= 0
        assert base == fitness_key(4, 4, pd, rd, genotypes[0].copy())
        assert base != fitness_key(2, 8, pd, rd, genotypes[0])
        assert base != fitness_key(4, 4, rd, pd, genotypes[0])
        assert base != fitness_key(4, 4, pd, pd, genotypes[0])
        assert base != fitness_key(4, 4, pd, rd, genotypes[1])
        assert base != fitness_key(4, 4, pd, rd, genotypes[0], fault_taint=True)

    def test_array_digest_covers_dtype_shape_and_bytes(self):
        values = np.arange(16, dtype=np.uint8)
        assert array_digest(values) == array_digest(values.copy())
        assert array_digest(values) != array_digest(values.astype(np.int16))
        assert array_digest(values) != array_digest(values.reshape(4, 4))
        flipped = values.copy()
        flipped[0] ^= 0xFF
        assert array_digest(values) != array_digest(flipped)

    def test_key_version_is_pinned(self):
        """Bumping FITNESS_KEY_VERSION invalidates every persisted cache;
        this pin makes such a bump an explicit, reviewed decision."""
        assert FITNESS_KEY_VERSION == 1
