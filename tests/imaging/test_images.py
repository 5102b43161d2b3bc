"""Tests for the synthetic image generators."""

import numpy as np
import pytest

from repro.imaging.images import (
    ImagePair,
    checkerboard_image,
    gradient_image,
    make_test_image,
    make_training_pair,
    _smooth_rows,
    shapes_image,
    texture_image,
)


def smooth_rows_per_row(values, half_width):
    """The per-row form the vectorised smoothing must reproduce bit for bit."""
    kernel = np.ones(2 * half_width + 1) / (2 * half_width + 1)
    return np.apply_along_axis(
        lambda row: np.convolve(np.pad(row, half_width, mode="wrap"), kernel, mode="valid"),
        1,
        values,
    )


class TestGradientImage:
    def test_shape_and_dtype(self):
        img = gradient_image(32)
        assert img.shape == (32, 32)
        assert img.dtype == np.uint8

    def test_horizontal_monotone(self):
        img = gradient_image(32, direction="horizontal")
        assert np.all(np.diff(img[0].astype(int)) >= 0)

    def test_vertical_monotone(self):
        img = gradient_image(32, direction="vertical")
        assert np.all(np.diff(img[:, 0].astype(int)) >= 0)

    def test_diagonal_spans_range(self):
        img = gradient_image(64, direction="diagonal")
        assert img.min() == 0
        assert img.max() >= 250

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            gradient_image(32, direction="sideways")

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gradient_image(4)


class TestCheckerboardImage:
    def test_only_two_levels(self):
        img = checkerboard_image(32, tile=8, low=10, high=200)
        assert set(np.unique(img)) == {10, 200}

    def test_tile_period(self):
        img = checkerboard_image(32, tile=8)
        # Two neighbouring tiles differ, tiles two apart are equal.
        assert img[0, 0] != img[0, 8]
        assert img[0, 0] == img[0, 16]

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            checkerboard_image(32, tile=0)

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            checkerboard_image(32, low=-1)
        with pytest.raises(ValueError):
            checkerboard_image(32, high=300)


class TestShapesAndTexture:
    def test_shapes_deterministic(self):
        a = shapes_image(32, seed=3)
        b = shapes_image(32, seed=3)
        assert np.array_equal(a, b)

    def test_shapes_seed_sensitivity(self):
        a = shapes_image(32, seed=3)
        b = shapes_image(32, seed=4)
        assert not np.array_equal(a, b)

    def test_texture_full_range(self):
        img = texture_image(64, seed=0)
        assert img.dtype == np.uint8
        assert img.min() == 0 and img.max() == 255

    def test_texture_invalid_smoothness(self):
        with pytest.raises(ValueError):
            texture_image(32, smoothness=0)

    @pytest.mark.parametrize("size", [8, 9, 31, 64, 127, 256])
    def test_vectorised_smoothing_is_bit_identical_to_per_row(self, size):
        for smoothness in range(1, 8):
            for seed in range(3):
                noise = np.random.default_rng(seed).random((size, size))
                expected = smooth_rows_per_row(smooth_rows_per_row(noise, smoothness).T, smoothness)
                actual = _smooth_rows(_smooth_rows(noise, smoothness).T, smoothness)
                assert actual.tobytes() == expected.tobytes(), (smoothness, seed)


class TestMakeTestImage:
    @pytest.mark.parametrize(
        "kind", ["gradient", "checkerboard", "shapes", "texture", "composite"]
    )
    def test_all_kinds(self, kind):
        img = make_test_image(size=32, seed=1, kind=kind)
        assert img.shape == (32, 32)
        assert img.dtype == np.uint8

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_test_image(size=32, kind="fractal")

    def test_composite_deterministic(self):
        assert np.array_equal(
            make_test_image(size=32, seed=5), make_test_image(size=32, seed=5)
        )


class TestImagePair:
    def test_valid_pair(self):
        img = make_test_image(32, seed=0)
        pair = ImagePair(training=img, reference=img.copy(), name="t")
        assert pair.shape == (32, 32)
        assert pair.n_pixels == 1024

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ImagePair(training=make_test_image(32), reference=make_test_image(64))

    def test_dtype_checked(self):
        img = make_test_image(32).astype(np.float64)
        with pytest.raises(TypeError):
            ImagePair(training=img, reference=img)

    def test_non_2d_rejected(self):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            ImagePair(training=img, reference=img)


class TestMakeTrainingPair:
    def test_salt_pepper_task(self):
        pair = make_training_pair("salt_pepper_denoise", size=32, seed=1, noise_level=0.2)
        assert pair.name == "salt_pepper_denoise"
        # Training image contains injected impulses; reference does not match it.
        assert not np.array_equal(pair.training, pair.reference)

    def test_identity_task(self):
        pair = make_training_pair("identity", size=32, seed=1)
        assert np.array_equal(pair.training, pair.reference)

    def test_edge_detect_reference_differs(self):
        pair = make_training_pair("edge_detect", size=32, seed=1)
        assert not np.array_equal(pair.training, pair.reference)

    def test_gaussian_and_smoothing_tasks(self):
        for task in ("gaussian_denoise", "smoothing"):
            pair = make_training_pair(task, size=32, seed=1, noise_level=0.05)
            assert pair.training.shape == pair.reference.shape

    def test_custom_clean_image(self):
        clean = make_test_image(24, seed=9)
        pair = make_training_pair("identity", clean=clean)
        assert np.array_equal(pair.reference, clean)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            make_training_pair("sharpen")

    def test_bad_clean_dtype(self):
        with pytest.raises(TypeError):
            make_training_pair("identity", clean=np.zeros((16, 16), dtype=np.float32))
