"""Tests for the systolic-array functional simulator."""

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.pe_library import PEFunction
from repro.array.systolic_array import ArrayGeometry, SystolicArray
from repro.array.window import extract_windows
from repro.imaging.images import make_test_image


class TestArrayGeometry:
    def test_paper_floorplan_numbers(self):
        geometry = ArrayGeometry()
        assert geometry.n_pes == 16
        assert geometry.clbs_per_pe == 10          # 2 CLB columns x 5 CLB rows
        assert geometry.total_clbs == 160          # paper §VI.A
        assert geometry.clb_columns == 8

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(rows=0)
        with pytest.raises(ValueError):
            ArrayGeometry(pe_clb_columns=0)

    def test_spec_matches(self):
        geometry = ArrayGeometry(rows=3, cols=5)
        spec = geometry.spec()
        assert (spec.rows, spec.cols) == (3, 5)


class TestProcessing:
    def test_identity_circuit_is_passthrough(self, array, identity_genotype, medium_image):
        out = array.process(medium_image, identity_genotype)
        assert np.array_equal(out, medium_image)

    def test_output_shape_and_dtype(self, array, random_genotype, medium_image):
        out = array.process(medium_image, random_genotype)
        assert out.shape == medium_image.shape
        assert out.dtype == np.uint8

    def test_deterministic(self, array, random_genotype, medium_image):
        a = array.process(medium_image, random_genotype)
        b = array.process(medium_image, random_genotype)
        assert np.array_equal(a, b)

    def test_process_planes_equals_process(self, array, random_genotype, medium_image):
        planes = extract_windows(medium_image)
        assert np.array_equal(
            array.process_planes(planes, random_genotype),
            array.process(medium_image, random_genotype),
        )

    def test_const_max_circuit(self, array, spec, medium_image):
        genotype = Genotype.identity(spec)
        genotype.function_genes[:, -1] = int(PEFunction.CONST_MAX)
        out = array.process(medium_image, genotype)
        assert np.all(out == 255)

    def test_output_select_changes_output(self, array, spec, rng, medium_image):
        genotype = Genotype.random(spec, rng)
        outputs = []
        for select in range(spec.rows):
            genotype.output_select = select
            outputs.append(array.process(medium_image, genotype))
        # At least two of the four east outputs should differ for a random circuit.
        distinct = {out.tobytes() for out in outputs}
        assert len(distinct) >= 2

    def test_west_mux_selects_window_pixel(self, array, spec, medium_image):
        # Identity circuit but west inputs select the north neighbour (offset
        # plane 1): the output is the image shifted down by one row.
        genotype = Genotype.identity(spec)
        genotype.west_mux[:] = 1  # (dy, dx) = (-1, 0)
        out = array.process(medium_image, genotype)
        assert np.array_equal(out[1:], medium_image[:-1])

    def test_geometry_mismatch_rejected(self, medium_image, rng):
        array = SystolicArray(ArrayGeometry(rows=2, cols=2))
        genotype = Genotype.random(GenotypeSpec(4, 4), rng)
        with pytest.raises(ValueError):
            array.process(medium_image, genotype)

    def test_bad_planes_shape_rejected(self, array, random_genotype):
        with pytest.raises(ValueError):
            array.process_planes(np.zeros((8, 4, 4), dtype=np.uint8), random_genotype)

    def test_bad_planes_dtype_rejected(self, array, random_genotype):
        with pytest.raises(TypeError):
            array.process_planes(np.zeros((9, 4, 4), dtype=np.int32), random_genotype)

    def test_process_stream(self, array, identity_genotype):
        images = [make_test_image(16, seed=s) for s in range(3)]
        outputs = list(array.process_stream(images, identity_genotype))
        assert len(outputs) == 3
        for image, output in zip(images, outputs):
            assert np.array_equal(image, output)

    def test_latency(self, array):
        assert array.latency == 7  # 4 + 4 - 1


class TestFaults:
    def test_inject_and_clear(self, array):
        array.inject_fault((1, 2), seed=0)
        assert array.faulty_positions == ((1, 2),)
        assert array.n_faults == 1
        array.clear_fault((1, 2))
        assert array.n_faults == 0

    def test_clear_all(self, array):
        array.inject_fault((0, 0), seed=1)
        array.inject_fault((3, 3), seed=2)
        array.clear_all_faults()
        assert array.faulty_positions == ()

    def test_out_of_range_position(self, array):
        with pytest.raises(ValueError):
            array.inject_fault((4, 0), seed=0)
        with pytest.raises(ValueError):
            array.inject_fault((0, 7), seed=0)

    def test_fault_breaks_identity(self, identity_genotype, medium_image):
        array = SystolicArray()
        array.inject_fault((0, 0), seed=1)
        out = array.process(medium_image, identity_genotype)
        # Row 0 of the chain is corrupted, so the output cannot equal the input.
        assert not np.array_equal(out, medium_image)

    def test_fault_off_output_path_harmless(self, identity_genotype, medium_image):
        # The identity circuit routes row 0 only (output_select = 0) and only
        # uses west inputs, so a fault in another row does not affect the output.
        array = SystolicArray()
        array.inject_fault((3, 0), seed=1)
        out = array.process(medium_image, identity_genotype)
        assert np.array_equal(out, medium_image)

    def test_constructor_faults(self):
        array = SystolicArray(faults={(2, 2): 7})
        assert array.faulty_positions == ((2, 2),)

    def test_faulty_output_varies_between_evaluations(self, identity_genotype, medium_image):
        array = SystolicArray()
        array.inject_fault((0, 3), seed=3)
        genotype = identity_genotype.copy()
        a = array.process(medium_image, genotype)
        b = array.process(medium_image, genotype)
        # The dummy-PE model produces fresh garbage every evaluation.
        assert not np.array_equal(a, b)

    def test_faulty_output_pe_emits_its_seeded_stream(self, identity_genotype, medium_image):
        # The dummy PE at the end of the selected row replaces the whole
        # output with the next plane of its own seeded stream.
        array = SystolicArray()
        array.inject_fault((0, 3), seed=9)
        stream = np.random.default_rng(9)
        for _ in range(2):
            expected = stream.integers(0, 256, size=medium_image.shape, dtype=np.uint8)
            assert np.array_equal(array.process(medium_image, identity_genotype), expected)

    def test_clear_fault_restores_function(self, identity_genotype, medium_image):
        array = SystolicArray()
        array.inject_fault((0, 0), seed=1)
        array.clear_fault((0, 0))
        assert not array.is_faulty((0, 0))
        assert np.array_equal(array.process(medium_image, identity_genotype), medium_image)

    def test_clear_healthy_position_is_a_no_op(self, array):
        array.inject_fault((1, 1), seed=2)
        array.clear_fault((2, 2))
        assert array.faulty_positions == ((1, 1),)
        assert array.fault_seed((1, 1)) == 2

    def test_clear_out_of_range_position_rejected(self, array):
        with pytest.raises(ValueError):
            array.clear_fault((4, 0))

    def test_faulty_positions_are_sorted(self, array):
        for seed, position in enumerate([(3, 1), (0, 2), (1, 0), (0, 1)]):
            array.inject_fault(position, seed=seed)
        assert array.faulty_positions == ((0, 1), (0, 2), (1, 0), (3, 1))
        assert all(array.is_faulty(p) for p in array.faulty_positions)
        assert not array.is_faulty((2, 2))

    def test_constructor_faults_keep_their_seeds(self):
        array = SystolicArray(faults={(2, 2): 7, (0, 1): 3})
        assert array.fault_seed((2, 2)) == 7
        assert array.fault_seed((0, 1)) == 3
        expected = np.random.default_rng(7).integers(0, 256, size=8, dtype=np.uint8)
        drawn = array.fault_rng((2, 2)).integers(0, 256, size=8, dtype=np.uint8)
        assert np.array_equal(drawn, expected)

    def test_numpy_integer_seed_is_stored_as_int(self, array):
        array.inject_fault((1, 2), seed=np.int64(5))
        assert array.fault_seed((1, 2)) == 5
        assert type(array.fault_seed((1, 2))) is int

    def test_new_seed_after_clear_starts_the_new_stream(self, array):
        array.inject_fault((3, 0), seed=6)
        array.fault_rng((3, 0)).integers(0, 256, size=4, dtype=np.uint8)
        array.clear_fault((3, 0))
        array.inject_fault((3, 0), seed=8)
        assert array.fault_seed((3, 0)) == 8
        expected = np.random.default_rng(8).integers(0, 256, size=16, dtype=np.uint8)
        drawn = array.fault_rng((3, 0)).integers(0, 256, size=16, dtype=np.uint8)
        assert np.array_equal(drawn, expected)

    def test_reset_fault_streams_does_not_revive_cleared_faults(self, array):
        array.inject_fault((0, 0), seed=1)
        array.inject_fault((1, 1), seed=2)
        array.clear_fault((0, 0))
        array.reset_fault_streams()
        assert array.faulty_positions == ((1, 1),)

    def test_drawing_one_stream_leaves_the_others(self, array):
        array.inject_fault((0, 0), seed=4)
        array.inject_fault((2, 3), seed=4)
        array.fault_rng((0, 0)).integers(0, 256, size=64, dtype=np.uint8)
        expected = np.random.default_rng(4).integers(0, 256, size=8, dtype=np.uint8)
        drawn = array.fault_rng((2, 3)).integers(0, 256, size=8, dtype=np.uint8)
        assert np.array_equal(drawn, expected)

    def test_same_seeded_faults_replay_on_a_second_array(self, identity_genotype, medium_image):
        def outputs():
            array = SystolicArray()
            array.inject_fault((0, 1), seed=13)  # on the identity's output row
            array.inject_fault((3, 3), seed=14)
            return [array.process(medium_image, identity_genotype) for _ in range(3)]

        first_run, second_run = outputs(), outputs()
        assert not np.array_equal(first_run[0], medium_image)
        for first, second in zip(first_run, second_run):
            assert np.array_equal(first, second)

    def test_fault_seed_of_a_never_faulty_position_raises(self, array):
        with pytest.raises(KeyError):
            array.fault_seed((0, 0))

    def test_fault_positions_follow_the_geometry(self):
        array = SystolicArray(ArrayGeometry(rows=2, cols=3))
        array.inject_fault((1, 2), seed=0)
        assert array.faulty_positions == ((1, 2),)
        with pytest.raises(ValueError):
            array.inject_fault((2, 0), seed=0)
        with pytest.raises(ValueError):
            array.inject_fault((0, 3), seed=0)
