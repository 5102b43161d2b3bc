"""Tests for sliding-window extraction."""

import numpy as np
import pytest

from repro.array.window import (
    N_WINDOW_PIXELS,
    WINDOW_SIZE,
    extract_windows,
    freeze_planes,
    window_offsets,
)


class TestWindowOffsets:
    def test_nine_offsets_row_major(self):
        offsets = window_offsets()
        assert len(offsets) == 9
        assert offsets[0] == (-1, -1)
        assert offsets[4] == (0, 0)
        assert offsets[8] == (1, 1)

    def test_constants(self):
        assert WINDOW_SIZE == 3
        assert N_WINDOW_PIXELS == 9


class TestExtractWindows:
    def test_shape(self):
        img = np.arange(48, dtype=np.uint8).reshape(6, 8)
        planes = extract_windows(img)
        assert planes.shape == (9, 6, 8)
        assert planes.dtype == np.uint8

    def test_centre_plane_is_image(self):
        img = np.arange(36, dtype=np.uint8).reshape(6, 6)
        planes = extract_windows(img)
        assert np.array_equal(planes[4], img)

    def test_interior_neighbours(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        planes = extract_windows(img)
        # For the window centred at (3, 3), plane 0 (offset -1,-1) holds (2, 2).
        assert planes[0][3, 3] == img[2, 2]
        assert planes[8][3, 3] == img[4, 4]
        assert planes[1][3, 3] == img[2, 3]

    def test_edge_replication_top_left(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        planes = extract_windows(img)
        # At (0, 0), the up-left neighbour is replicated from (0, 0).
        assert planes[0][0, 0] == img[0, 0]
        # The down-right neighbour of (0, 0) is the true pixel (1, 1).
        assert planes[8][0, 0] == img[1, 1]

    def test_edge_replication_bottom_right(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        planes = extract_windows(img)
        assert planes[8][3, 3] == img[3, 3]

    def test_rejects_small_image(self):
        with pytest.raises(ValueError):
            extract_windows(np.zeros((2, 8), dtype=np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            extract_windows(np.zeros((8, 8), dtype=np.int32))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            extract_windows(np.zeros((8, 8, 3), dtype=np.uint8))

    def test_constant_image_constant_planes(self):
        img = np.full((8, 8), 99, dtype=np.uint8)
        planes = extract_windows(img)
        assert np.all(planes == 99)


class TestFreezePlanes:
    def test_equal_to_extracted_planes_and_never_writeable(self):
        img = np.arange(48, dtype=np.uint8).reshape(6, 8)
        planes = freeze_planes(extract_windows(img))
        assert np.array_equal(planes, extract_windows(img))
        assert not planes.flags.writeable
        with pytest.raises(ValueError):
            planes.flags.writeable = True
