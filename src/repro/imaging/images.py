"""Synthetic grayscale test images.

All images are 8-bit grayscale (``numpy.uint8``) two-dimensional arrays, the
pixel format processed by the evolvable array (the paper's platform streams
8-bit pixels through the 3x3 sliding window).

The generators are deterministic given a seed, which keeps every experiment
in the benchmark harness reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "ImagePair",
    "gradient_image",
    "checkerboard_image",
    "shapes_image",
    "texture_image",
    "make_test_image",
    "make_training_pair",
]

#: Default image side used throughout the experiments (paper: 128x128).
DEFAULT_SIZE = 128


def _as_rng(seed: Union[int, np.random.Generator, None]) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _validate_size(size: int) -> int:
    if size < 8:
        raise ValueError(f"image size must be >= 8 pixels, got {size}")
    return int(size)


def gradient_image(size: int = DEFAULT_SIZE, direction: str = "diagonal") -> np.ndarray:
    """Smooth intensity ramp.

    Parameters
    ----------
    size:
        Side length of the square image in pixels.
    direction:
        ``"horizontal"``, ``"vertical"`` or ``"diagonal"``.

    Returns
    -------
    numpy.ndarray
        ``(size, size)`` uint8 image.
    """
    size = _validate_size(size)
    ramp = np.linspace(0.0, 255.0, size)
    if direction == "horizontal":
        img = np.tile(ramp, (size, 1))
    elif direction == "vertical":
        img = np.tile(ramp[:, None], (1, size))
    elif direction == "diagonal":
        img = (ramp[None, :] + ramp[:, None]) / 2.0
    else:
        raise ValueError(f"unknown gradient direction: {direction!r}")
    return img.astype(np.uint8)


def checkerboard_image(
    size: int = DEFAULT_SIZE, tile: int = 16, low: int = 32, high: int = 224
) -> np.ndarray:
    """Checkerboard with alternating ``low`` / ``high`` tiles.

    Checkerboards have dense edges in both directions, which makes them a
    useful training target for edge-detection evolution.
    """
    size = _validate_size(size)
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    if not (0 <= low <= 255 and 0 <= high <= 255):
        raise ValueError("low/high must be valid 8-bit intensities")
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    board = ((yy // tile) + (xx // tile)) % 2
    return np.where(board == 0, np.uint8(low), np.uint8(high)).astype(np.uint8)


def shapes_image(size: int = DEFAULT_SIZE, seed: Union[int, np.random.Generator, None] = 0,
                 n_shapes: int = 12) -> np.ndarray:
    """Random rectangles and discs on a mid-gray background.

    Mimics the structured content (objects with sharp borders over smooth
    regions) of the photographic test images used in the paper.
    """
    size = _validate_size(size)
    rng = _as_rng(seed)
    img = np.full((size, size), 128, dtype=np.float64)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for _ in range(n_shapes):
        intensity = float(rng.integers(0, 256))
        kind = rng.integers(0, 2)
        cy, cx = rng.integers(0, size, size=2)
        extent = int(rng.integers(size // 16, size // 4))
        if kind == 0:  # rectangle
            y0, y1 = max(0, cy - extent), min(size, cy + extent)
            x0, x1 = max(0, cx - extent), min(size, cx + extent)
            img[y0:y1, x0:x1] = intensity
        else:  # disc
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= extent ** 2
            img[mask] = intensity
    return np.clip(img, 0, 255).astype(np.uint8)


def _smooth_rows(values: np.ndarray, half_width: int) -> np.ndarray:
    """Wrap-padded box smoothing of every row of a 2-D float array.

    One ``np.convolve`` runs over all padded rows laid end to end; each
    output keeps the windows that lie inside one row.  Every kept output
    is the same dot product, over the same operands in the same order, as
    a per-row ``np.convolve(np.pad(row, half_width, mode="wrap"), kernel,
    mode="valid")``, so the result is bit-identical to that form.
    """
    width = 2 * half_width + 1
    kernel = np.ones(width) / width
    padded = np.pad(values, ((0, 0), (half_width, half_width)), mode="wrap")
    rows, stride = padded.shape
    flat = np.convolve(padded.ravel(), kernel, mode="valid")
    starts = np.arange(rows)[:, None] * stride + np.arange(values.shape[1])
    return flat[starts]


def texture_image(size: int = DEFAULT_SIZE, seed: Union[int, np.random.Generator, None] = 0,
                  smoothness: int = 4) -> np.ndarray:
    """Band-limited random texture (smoothed white noise).

    Produces natural-image-like second order statistics: most energy at low
    spatial frequencies, some high-frequency detail.  ``smoothness`` is the
    half-width of the separable box kernel applied to white noise.
    """
    size = _validate_size(size)
    if smoothness < 1:
        raise ValueError(f"smoothness must be >= 1, got {smoothness}")
    rng = _as_rng(seed)
    noise = rng.random((size, size))
    # Separable smoothing along both axes; wrap mode keeps statistics uniform.
    smoothed = _smooth_rows(_smooth_rows(noise, smoothness).T, smoothness).T
    smoothed -= smoothed.min()
    peak = smoothed.max()
    if peak > 0:
        smoothed /= peak
    return (smoothed * 255.0).astype(np.uint8)


def make_test_image(
    size: int = DEFAULT_SIZE,
    seed: Union[int, np.random.Generator, None] = 0,
    kind: str = "composite",
) -> np.ndarray:
    """Produce a standard test image.

    ``kind`` may be ``"gradient"``, ``"checkerboard"``, ``"shapes"``,
    ``"texture"`` or ``"composite"``.  The composite image blends shapes,
    texture and a gradient so that a single image contains flat regions,
    edges and fine detail — the content mix a denoising filter has to cope
    with, and the closest synthetic stand-in for the photographic image in
    the paper's Fig. 18.
    """
    size = _validate_size(size)
    rng = _as_rng(seed)
    if kind == "gradient":
        return gradient_image(size)
    if kind == "checkerboard":
        return checkerboard_image(size)
    if kind == "shapes":
        return shapes_image(size, rng)
    if kind == "texture":
        return texture_image(size, rng)
    if kind == "composite":
        shapes = shapes_image(size, rng).astype(np.float64)
        texture = texture_image(size, rng).astype(np.float64)
        grad = gradient_image(size).astype(np.float64)
        img = 0.55 * shapes + 0.25 * texture + 0.20 * grad
        return np.clip(img, 0, 255).astype(np.uint8)
    raise ValueError(f"unknown image kind: {kind!r}")


@dataclass(frozen=True)
class ImagePair:
    """A (training, reference) image pair defining a filtering task.

    In the paper the *training* image is what the array sees at its input
    during evolution, and the *reference* image is what the hardware MAE
    unit compares the array output against.  Choosing the pair chooses the
    task: noisy/clean yields a denoiser, clean/edge-map yields an edge
    detector (paper §III.A).
    """

    training: np.ndarray
    reference: np.ndarray
    name: str = "unnamed"

    def __post_init__(self) -> None:
        if self.training.shape != self.reference.shape:
            raise ValueError(
                "training and reference images must have identical shapes; "
                f"got {self.training.shape} vs {self.reference.shape}"
            )
        if self.training.ndim != 2:
            raise ValueError("images must be 2-D grayscale arrays")
        if self.training.dtype != np.uint8 or self.reference.dtype != np.uint8:
            raise TypeError("images must be uint8")

    @property
    def shape(self) -> tuple:
        """Image shape shared by both members of the pair."""
        return self.training.shape

    @property
    def n_pixels(self) -> int:
        """Number of pixels per image."""
        return int(self.training.size)


def make_training_pair(
    task: str = "salt_pepper_denoise",
    size: int = DEFAULT_SIZE,
    seed: Union[int, np.random.Generator, None] = 0,
    noise_level: float = 0.05,
    image_kind: str = "composite",
    clean: Optional[np.ndarray] = None,
) -> ImagePair:
    """Build a training/reference :class:`ImagePair` for a named task.

    Parameters
    ----------
    task:
        One of:

        ``"salt_pepper_denoise"``
            training = clean image corrupted by salt-and-pepper noise at
            ``noise_level`` density, reference = clean image.
        ``"gaussian_denoise"``
            training = clean + additive Gaussian noise with standard
            deviation ``255 * noise_level``, reference = clean image.
        ``"edge_detect"``
            training = clean image, reference = Sobel edge magnitude.
        ``"smoothing"``
            training = clean image, reference = Gaussian-smoothed image.
        ``"identity"``
            training = reference = clean image (useful for calibration and
            for testing that evolution converges to a pass-through circuit).
    size:
        Image side in pixels (ignored when ``clean`` is given).
    seed:
        Seed or generator controlling both image synthesis and noise.
    noise_level:
        Noise density (salt-and-pepper) or relative sigma (Gaussian).
    image_kind:
        Passed to :func:`make_test_image` when ``clean`` is not supplied.
    clean:
        Optional externally supplied clean image (uint8, 2-D).
    """
    from repro.imaging.filters import gaussian_filter, sobel_edges
    from repro.imaging.noise import add_gaussian_noise, add_salt_and_pepper

    rng = _as_rng(seed)
    if clean is None:
        clean = make_test_image(size=size, seed=rng, kind=image_kind)
    else:
        clean = np.asarray(clean)
        if clean.dtype != np.uint8 or clean.ndim != 2:
            raise TypeError("clean image must be a 2-D uint8 array")

    if task == "salt_pepper_denoise":
        noisy = add_salt_and_pepper(clean, density=noise_level, rng=rng)
        return ImagePair(training=noisy, reference=clean, name=task)
    if task == "gaussian_denoise":
        noisy = add_gaussian_noise(clean, sigma=255.0 * noise_level, rng=rng)
        return ImagePair(training=noisy, reference=clean, name=task)
    if task == "edge_detect":
        return ImagePair(training=clean, reference=sobel_edges(clean), name=task)
    if task == "smoothing":
        return ImagePair(training=clean, reference=gaussian_filter(clean), name=task)
    if task == "identity":
        return ImagePair(training=clean, reference=clean.copy(), name=task)
    raise ValueError(f"unknown task: {task!r}")
