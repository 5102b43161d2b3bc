"""Tests for the fitness evaluator."""

import pytest

from repro.ea.fitness import FitnessEvaluator
from repro.imaging.images import make_test_image
from repro.imaging.metrics import sae


class TestFitnessEvaluator:
    def test_identity_on_identity_task_is_zero(self, array, identity_genotype, medium_image):
        evaluator = FitnessEvaluator(array, medium_image, medium_image)
        assert evaluator.evaluate(identity_genotype) == 0.0

    def test_matches_direct_sae(self, array, random_genotype, medium_image):
        reference = make_test_image(32, seed=99)
        evaluator = FitnessEvaluator(array, medium_image, reference)
        output = array.process(medium_image, random_genotype)
        assert evaluator.evaluate(random_genotype) == sae(output, reference)

    def test_counts_evaluations(self, array, identity_genotype, medium_image):
        evaluator = FitnessEvaluator(array, medium_image, medium_image)
        for _ in range(5):
            evaluator.evaluate(identity_genotype)
        assert evaluator.n_evaluations == 5

    def test_shape_mismatch_rejected(self, array, medium_image):
        with pytest.raises(ValueError):
            FitnessEvaluator(array, medium_image, make_test_image(16))

    def test_n_pixels(self, array, medium_image):
        evaluator = FitnessEvaluator(array, medium_image, medium_image)
        assert evaluator.n_pixels == medium_image.size
        assert evaluator.image_shape == medium_image.shape
