"""Parity of the shared memo-key conventions (`repro.backends.signature`).

The numpy engine inlines the packed-signature arithmetic in its
candidate walk for speed; :mod:`repro.backends.signature` is the
normative definition.  This suite pins the inlined copy to it: the
packing expression itself, the whole-candidate ``cand_intern`` keys the
engine interns under, the sensitivity of the persistent fitness-key
derivation, its bytes under key version 1 and the index-line encoding.
"""

import json

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec, Population
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends.fitness_cache import index_line
from repro.backends.numpy_engine import NumpyBackend
from repro.backends.signature import (
    COMMUTATIVE,
    FITNESS_KEY_VERSION,
    NO_NORTH,
    array_digest,
    candidate_bytes,
    fitness_key,
    fitness_key_prefix,
    pack_signature,
)
from repro.ea.mutation import mutate_population


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
# Whole-candidate memo keys: the engine interns under candidate_bytes
# --------------------------------------------------------------------------- #
class TestCandidateKeyParity:
    def test_engines_intern_identical_candidate_keys(self, workload):
        planes, reference, genotypes = workload
        expected = {candidate_bytes(genotype) for genotype in genotypes}

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
            assert candidate_bytes(other) != candidate_bytes(base)
        shifted = base.copy()
        shifted.output_select = (base.output_select + 1) % 4
        assert candidate_bytes(shifted) != candidate_bytes(base)

    def test_candidate_bytes_is_flat_and_stable(self):
        genotype = Genotype.random(rng=np.random.default_rng(3))
        flat = candidate_bytes(genotype)
        assert flat == candidate_bytes(genotype.copy())
        genes = genotype.function_genes, genotype.west_mux, genotype.north_mux
        fg, w, n = (array.tobytes() for array in genes)
        assert flat == fg + w + n + genotype.output_select.to_bytes(4, "little")

    @pytest.mark.parametrize("rows, cols", [(4, 4), (2, 8), (1, 1), (300, 1)])
    def test_generation_keys_are_candidate_bytes(self, rows, cols):
        """The keys sliced from a generation's gene matrix equal each
        offspring's own key, output rows beyond one byte included."""
        spec = GenotypeSpec(rows, cols)
        parent = Genotype.random(spec, np.random.default_rng(rows))
        generation = mutate_population(parent, 2, np.random.default_rng(cols), 7)
        keys = generation.population.keys
        assert keys == [candidate_bytes(result.genotype) for result in generation]
        assert keys == Population.of(list(generation.population)).keys


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

    def test_key_bytes_are_pinned_under_version_1(self):
        """Existing on-disk caches keep hitting only while these stay put."""
        genotype = Genotype(
            GenotypeSpec(),
            np.arange(16, dtype=np.uint8).reshape(4, 4),
            np.array([0, 3, 5, 8], dtype=np.uint8),
            np.array([8, 1, 2, 7], dtype=np.uint8),
            2,
        )
        pd = array_digest(np.arange(27, dtype=np.uint8).reshape(3, 3, 3))
        rd = array_digest(np.full((3, 3), 7, dtype=np.uint8))
        assert fitness_key(4, 4, pd, rd, genotype) == (
            "a688fb776e5df863cf4aaa86d165b7c3bf9d215749dc893a7a6e094c665a9c81"
        )
        assert fitness_key(4, 4, pd, rd, genotype, fault_taint=True) == (
            "294381c8c3099111d610bccccea136ac4078d4442acfafee025eefcb669429aa"
        )

    def test_prefix_form_equals_fitness_key(self):
        """The pipeline's form: one prefix per scope, completed per candidate
        from the population key it already holds."""
        rng = np.random.default_rng(21)
        for rows, cols in ((4, 4), (2, 8), (3, 5), (1, 1), (6, 2)):
            spec = GenotypeSpec(rows, cols)
            pd = "%064x" % int(rng.integers(0, 2**63))
            rd = "%064x" % int(rng.integers(0, 2**63))
            for taint in (False, True):
                prefix = fitness_key_prefix(rows, cols, pd, rd, taint)
                genotypes = [Genotype.random(spec, rng) for _ in range(20)]
                for genotype, key in zip(genotypes, Population.of(genotypes).keys):
                    digest = prefix.copy()
                    digest.update(key)
                    expected = fitness_key(rows, cols, pd, rd, genotype, fault_taint=taint)
                    assert digest.hexdigest() == expected

    @pytest.mark.parametrize("side", [16, 32, 128])
    def test_index_line_equals_json_dumps(self, side):
        top = 255 * side * side
        values = [float(v) for v in range(0, top + 1, max(1, top // 4000))] + [float(top)]
        values += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**60]
        rng = np.random.default_rng(side)
        for value in values:
            key = "%064x" % int(rng.integers(0, 2**63))
            expected = json.dumps({"key": key, "fitness": value}, sort_keys=True) + "\n"
            assert index_line(key, value) == expected
