"""Bit-exactness of the ``numpy`` backend against ``reference``.

The acceptance bar of the backend subsystem: over every PE operation,
every processing mode and every fault pattern, the numpy engine must
produce byte-identical planes (and therefore identical fitness) to the
readable per-PE reference sweep — cold cache, warm cache, single or
batched, interleaved in any order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.pe_library import N_FUNCTIONS, apply_function
from repro.array.systolic_array import ArrayGeometry, SystolicArray
from repro.array.window import N_WINDOW_PIXELS, extract_windows
from repro.backends.numpy_engine import _KERNELS, NumpyBackend
from repro.core.evolution import ArrayEvalContext
from repro.core.modes import ProcessingMode
from repro.core.platform import EvolvableHardwarePlatform
from repro.ea.mutation import mutate
from repro.imaging.metrics import sae

SPEC = GenotypeSpec()


def _image(side=16, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(side, side), dtype=np.uint8)


def _pair_of_arrays(faults=(), geometry=ArrayGeometry()):
    """A reference and a numpy array with identical fault state."""
    arrays = (
        SystolicArray(geometry=geometry, backend="reference"),
        SystolicArray(geometry=geometry, backend="numpy"),
    )
    for array in arrays:
        for position, seed in faults:
            array.inject_fault(position, seed)
    return arrays


class TestFunctionKernels:
    def test_out_kernels_exhaustively_bit_exact(self):
        """Every engine kernel writes the reference plane into ``out``, on ALL 256x256 pairs."""
        west = np.repeat(np.arange(256, dtype=np.uint8), 256).reshape(256, 256)
        north = np.tile(np.arange(256, dtype=np.uint8), 256).reshape(256, 256)
        for gene in range(N_FUNCTIONS):
            expected = apply_function(gene, west, north)
            out = np.full((256, 256), 0xA5, dtype=np.uint8)
            produced = _KERNELS[gene](west, north, out)
            assert produced is out, gene
            assert produced.dtype == np.uint8, gene
            assert np.array_equal(produced, expected), f"gene {gene} diverges"


class TestEveryPeOperation:
    @pytest.mark.parametrize("gene", range(N_FUNCTIONS))
    def test_uniform_gene_circuit(self, gene):
        """A circuit made entirely of one PE function, over several muxes."""
        planes = extract_windows(_image(seed=gene))
        reference, numpy_array = _pair_of_arrays()
        for mux_seed in range(3):
            rng = np.random.default_rng(mux_seed)
            genotype = Genotype(
                spec=SPEC,
                function_genes=np.full((4, 4), gene, dtype=np.uint8),
                west_mux=rng.integers(0, N_WINDOW_PIXELS, 4, dtype=np.uint8),
                north_mux=rng.integers(0, N_WINDOW_PIXELS, 4, dtype=np.uint8),
                output_select=int(rng.integers(0, 4)),
            )
            assert np.array_equal(
                reference.process_planes(planes, genotype),
                numpy_array.process_planes(planes, genotype),
            )

    def test_identity_circuit_is_identity_on_both(self):
        image = _image()
        for backend in ("reference", "numpy"):
            array = SystolicArray(backend=backend)
            assert np.array_equal(array.process(image, Genotype.identity()), image)


class TestRandomCircuits:
    def test_many_random_genotypes_single_and_batch(self):
        planes = extract_windows(_image())
        reference, numpy_array = _pair_of_arrays()
        rng = np.random.default_rng(7)
        genotypes = [Genotype.random(SPEC, rng) for _ in range(200)]
        for genotype in genotypes:
            assert np.array_equal(
                reference.process_planes(planes, genotype),
                numpy_array.process_planes(planes, genotype),
            )
        target = planes[4]
        expected = reference.evaluate_population(planes, genotypes[:16], target)
        produced = numpy_array.evaluate_population(planes, genotypes[:16], target)
        assert np.array_equal(expected, produced)

    def test_non_square_geometry(self):
        geometry = ArrayGeometry(rows=3, cols=5)
        planes = extract_windows(_image())
        reference, numpy_array = _pair_of_arrays(geometry=geometry)
        rng = np.random.default_rng(5)
        for _ in range(50):
            genotype = Genotype.random(geometry.spec(), rng)
            assert np.array_equal(
                reference.process_planes(planes, genotype),
                numpy_array.process_planes(planes, genotype),
            )

    def test_output_is_owned_not_a_view(self):
        planes = extract_windows(_image())
        numpy_array = SystolicArray(backend="numpy")
        out = numpy_array.process_planes(planes, Genotype.identity())
        before = planes.copy()
        out[:] = 0
        assert np.array_equal(planes, before), "output aliased the input planes"

    def test_mutating_planes_invalidates_cache(self):
        planes = extract_windows(_image())
        numpy_array = SystolicArray(backend="numpy")
        reference = SystolicArray(backend="reference")
        genotype = Genotype.random(SPEC, np.random.default_rng(1))
        numpy_array.process_planes(planes, genotype)
        planes[4] = 255 - planes[4]  # in-place mutation of the cached key
        assert np.array_equal(
            numpy_array.process_planes(planes, genotype),
            reference.process_planes(planes, genotype),
        )

    def test_tiny_cache_budget_stays_correct(self):
        planes = extract_windows(_image())
        backend = NumpyBackend(max_cache_bytes=1, max_stores=1)
        numpy_array = SystolicArray(backend=backend)
        reference = SystolicArray(backend="reference")
        rng = np.random.default_rng(2)
        for _ in range(30):
            genotype = Genotype.random(SPEC, rng)
            assert np.array_equal(
                reference.process_planes(planes, genotype),
                numpy_array.process_planes(planes, genotype),
            )


class TestFaultPatterns:
    def test_single_fault_at_every_position(self):
        """One faulty PE at each of the 16 positions, same seeds both sides."""
        planes = extract_windows(_image())
        rng = np.random.default_rng(11)
        genotypes = [Genotype.random(SPEC, rng) for _ in range(4)]
        for row in range(4):
            for col in range(4):
                reference, numpy_array = _pair_of_arrays(faults=[((row, col), 97)])
                for genotype in genotypes:
                    assert np.array_equal(
                        reference.process_planes(planes, genotype),
                        numpy_array.process_planes(planes, genotype),
                    ), (row, col)

    def test_multi_fault_interleaved_single_and_batch(self):
        """Per-position RNG streams stay aligned across mixed call patterns."""
        planes = extract_windows(_image())
        faults = [((0, 0), 3), ((1, 2), 5), ((3, 3), 8)]
        reference, numpy_array = _pair_of_arrays(faults=faults)
        rng = np.random.default_rng(13)
        for step in range(12):
            if step % 3 == 2:
                batch = [Genotype.random(SPEC, rng) for _ in range(5)]
                assert np.array_equal(
                    reference.evaluate_population(planes, batch, planes[4]),
                    numpy_array.evaluate_population(planes, batch, planes[4]),
                ), step
            else:
                genotype = Genotype.random(SPEC, rng)
                assert np.array_equal(
                    reference.process_planes(planes, genotype),
                    numpy_array.process_planes(planes, genotype),
                ), step

    def test_fault_below_output_row_still_consumes_draws(self):
        """A fault the output never reads must still advance its RNG stream."""
        planes = extract_windows(_image())
        # Output row 0: rows 1-3 are dead code, including the faulty PE.
        genotype = Genotype.identity()
        live = Genotype.random(SPEC, np.random.default_rng(3))
        reference, numpy_array = _pair_of_arrays(faults=[((3, 1), 21)])
        for _ in range(4):
            assert np.array_equal(
                reference.process_planes(planes, genotype),
                numpy_array.process_planes(planes, genotype),
            )
            # A later candidate that *does* read row 3 sees the same stream.
            assert np.array_equal(
                reference.process_planes(planes, live),
                numpy_array.process_planes(planes, live),
            )

    def test_platform_fault_injection_paths(self):
        """LPD + SEU + scrubbing through the platform, on both backends."""
        outputs = {}
        image = _image(side=20, seed=4)
        for backend in ("reference", "numpy"):
            platform = EvolvableHardwarePlatform(n_arrays=2, seed=9, backend=backend)
            genotype = platform.random_genotype()
            for index in range(2):
                platform.configure_array(index, genotype)
            platform.inject_permanent_fault(0, 1, 1)
            platform.inject_transient_fault(1, 2, 2)
            faulty = [platform.acb(i).shadow_process(image) for i in range(2)]
            platform.scrub_all()  # repairs the SEU, not the LPD
            scrubbed = [platform.acb(i).shadow_process(image) for i in range(2)]
            outputs[backend] = (faulty, scrubbed)
        for ref_out, np_out in zip(outputs["reference"], outputs["numpy"]):
            for a, b in zip(ref_out, np_out):
                assert np.array_equal(a, b)


class TestProcessingModes:
    @pytest.fixture()
    def platforms(self):
        built = {}
        for backend in ("reference", "numpy"):
            platform = EvolvableHardwarePlatform(n_arrays=3, seed=2, backend=backend)
            rng = np.random.default_rng(31)
            for index in range(3):
                platform.configure_array(index, Genotype.random(SPEC, rng))
            built[backend] = platform
        return built

    def test_cascade_mode(self, platforms):
        image = _image(side=20)
        outputs = {
            backend: platform.process_cascade(image)
            for backend, platform in platforms.items()
        }
        assert np.array_equal(outputs["reference"], outputs["numpy"])

    def test_bypass_mode(self, platforms):
        image = _image(side=20)
        for platform in platforms.values():
            platform.set_bypass(1, True)
        outputs = {
            backend: platform.process_cascade(image)
            for backend, platform in platforms.items()
        }
        assert np.array_equal(outputs["reference"], outputs["numpy"])

    def test_parallel_voted_mode(self, platforms):
        image = _image(side=20)
        outputs = {
            backend: platform.process_parallel(image, vote=True)
            for backend, platform in platforms.items()
        }
        assert np.array_equal(outputs["reference"], outputs["numpy"])

    def test_independent_mode(self, platforms):
        images = [_image(side=20, seed=s) for s in range(3)]
        for platform in platforms.values():
            platform.set_processing_mode(ProcessingMode.INDEPENDENT)
        ref_outputs = platforms["reference"].process(images)
        np_outputs = platforms["numpy"].process(images)
        for a, b in zip(ref_outputs, np_outputs):
            assert np.array_equal(a, b)


class TestEvaluateBatchParity:
    def test_fitness_identical_across_backends(self):
        from repro.imaging.images import make_training_pair

        pair = make_training_pair("salt_pepper_denoise", size=24, seed=6, noise_level=0.1)
        fitnesses = {}
        for backend in ("reference", "numpy"):
            platform = EvolvableHardwarePlatform(n_arrays=1, seed=3, backend=backend)
            context = ArrayEvalContext(platform, 0, pair.training)
            rng = np.random.default_rng(17)
            parent = Genotype.random(SPEC, rng)
            values = []
            for _ in range(10):
                batch = [mutate(parent, 3, rng).genotype for _ in range(9)]
                values.append(context.fitness_population(batch, pair.reference))
            fitnesses[backend] = values
        assert fitnesses["reference"] == fitnesses["numpy"]


class TestWideReferences:
    """Non-uint8 references: numpy's fallback and the reference sweep both
    reduce with ``sae``'s int64 arithmetic and keep the fault streams aligned."""

    FAULTS = [((0, 1), 31), ((2, 2), 32)]

    @pytest.mark.parametrize("dtype", ("int64", "float64"))
    @pytest.mark.parametrize("backend", ("reference", "numpy"))
    def test_matches_per_candidate_sae_and_stream_state(self, backend, dtype):
        target = np.random.default_rng(23).uniform(-400.0, 700.0, size=(12, 12)).astype(dtype)
        assert target.min() < 0 and target.max() > 255
        planes = extract_windows(_image(side=12, seed=4))
        rng = np.random.default_rng(29)
        genotypes = [Genotype.random(SPEC, rng) for _ in range(6)]

        def build():
            array = SystolicArray(backend=backend)
            for position, seed in self.FAULTS:
                array.inject_fault(position, seed)
            return array

        population_array, oracle = build(), build()
        for _ in range(2):  # a second round checks the streams stayed aligned
            fits = population_array.evaluate_population(planes, genotypes, target)
            expected = [sae(oracle.process_planes(planes, g), target) for g in genotypes]
            assert fits.dtype == np.float64
            assert fits.tolist() == expected
        for position, _ in self.FAULTS:
            assert (
                population_array.fault_rng(position).bit_generator.state
                == oracle.fault_rng(position).bit_generator.state
            )


# --------------------------------------------------------------------------- #
# Property-based parity: random genotypes x fault sets x call shapes.
# --------------------------------------------------------------------------- #
@st.composite
def fault_sets(draw):
    n_faults = draw(st.integers(0, 3))
    positions = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=n_faults,
            max_size=n_faults,
            unique=True,
        )
    )
    seeds = draw(
        st.lists(st.integers(0, 2**16), min_size=len(positions), max_size=len(positions))
    )
    return list(zip(positions, seeds))


@settings(max_examples=60, deadline=None)
@given(
    genotype_seed=st.integers(0, 2**16),
    image_seed=st.integers(0, 2**16),
    faults=fault_sets(),
    batch_size=st.integers(1, 6),
)
def test_property_random_circuits_and_faults(genotype_seed, image_seed, faults, batch_size):
    planes = extract_windows(_image(side=12, seed=image_seed))
    reference, numpy_array = _pair_of_arrays(faults=faults)
    rng = np.random.default_rng(genotype_seed)
    genotypes = [Genotype.random(SPEC, rng) for _ in range(batch_size)]

    target = planes[4]
    expected = reference.evaluate_population(planes, genotypes, target)
    produced = numpy_array.evaluate_population(planes, genotypes, target)
    assert np.array_equal(expected, produced)

    # Both equal the per-candidate oracle run on fresh fault streams.
    oracle, _ = _pair_of_arrays(faults=faults)
    assert expected.tolist() == [sae(oracle.process_planes(planes, g), target) for g in genotypes]

    # A follow-up single evaluation must agree too (same RNG stream state).
    follow_up = Genotype.random(SPEC, rng)
    assert np.array_equal(
        reference.process_planes(planes, follow_up),
        numpy_array.process_planes(planes, follow_up),
    )
