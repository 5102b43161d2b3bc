"""Baseline (non-evolved) window filters.

The paper compares the evolved cascade against the conventional reference
filter for salt-and-pepper noise — the 3x3 median filter — and evolves
edge-detection and smoothing behaviour against Sobel / Gaussian references.
These conventional filters are implemented here so that every comparison in
the evaluation section has a concrete, runnable baseline.

All filters accept and return 8-bit grayscale images and use the same
border convention as the evolvable array: the output is computed for every
pixel using a 3x3 neighbourhood obtained with edge replication, so the
output has the same shape as the input.

:mod:`scipy.ndimage` is imported inside the filters that use it, so
``import repro`` does not load scipy (pinned by
``tests/test_import_budget.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "identity_filter",
    "median_filter",
    "mean_filter",
    "gaussian_filter",
    "sobel_edges",
]


def _check_image(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise TypeError(f"expected uint8 image, got dtype {image.dtype}")
    return image


def identity_filter(image: np.ndarray) -> np.ndarray:
    """Pass-through filter (returns a copy)."""
    return _check_image(image).copy()


def median_filter(image: np.ndarray, size: int = 3) -> np.ndarray:
    """Median filter — the paper's conventional reference for impulse noise."""
    image = _check_image(image)
    if size < 1 or size % 2 == 0:
        raise ValueError(f"size must be an odd positive integer, got {size}")
    from scipy import ndimage

    return ndimage.median_filter(image, size=size, mode="nearest").astype(np.uint8)


def mean_filter(image: np.ndarray, size: int = 3) -> np.ndarray:
    """Box (mean) filter over a ``size`` x ``size`` window."""
    image = _check_image(image)
    if size < 1 or size % 2 == 0:
        raise ValueError(f"size must be an odd positive integer, got {size}")
    from scipy import ndimage

    out = ndimage.uniform_filter(image.astype(np.float64), size=size, mode="nearest")
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def gaussian_filter(image: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Gaussian smoothing filter."""
    image = _check_image(image)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    from scipy import ndimage

    out = ndimage.gaussian_filter(image.astype(np.float64), sigma=sigma, mode="nearest")
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def sobel_edges(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude, normalised to the 8-bit range.

    Used as the reference image when evolving an edge-detection filter
    (paper §III.A: "if the training image is the noise-free one, and the
    reference is set to the edge detected image, the circuit will converge
    to an edge-detection filter").
    """
    image = _check_image(image)
    from scipy import ndimage

    img = image.astype(np.float64)
    gx = ndimage.sobel(img, axis=1, mode="nearest")
    gy = ndimage.sobel(img, axis=0, mode="nearest")
    magnitude = np.hypot(gx, gy)
    peak = magnitude.max()
    if peak > 0:
        magnitude = magnitude * (255.0 / peak)
    return np.clip(np.rint(magnitude), 0, 255).astype(np.uint8)
