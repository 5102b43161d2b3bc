"""Image quality metrics.

The paper's fitness function is the pixel-aggregated Mean Absolute Error
(MAE) computed by a hardware fitness unit inside each Array Control Block.
The figures report the *aggregated* absolute error (sum over pixels), e.g.
"a MAE fitness value of around 8000" for a 128x128 image, so both the sum
(:func:`sae`) and per-pixel mean (:func:`mae`) forms are provided; the
platform uses :func:`sae` as its fitness to match the paper's scale.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sae", "sae_batch", "mae", "mse", "psnr"]


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError("expected 2-D grayscale images")
    return a, b


def sae(output: np.ndarray, reference: np.ndarray) -> float:
    """Sum of absolute errors (the paper's aggregated MAE fitness; lower is better)."""
    output, reference = _check_pair(output, reference)
    diff = np.abs(output.astype(np.int64) - reference.astype(np.int64))
    return float(diff.sum())


def sae_batch(outputs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Aggregated absolute error of a ``(B, H, W)`` batch vs one reference.

    The vectorised form of :func:`sae` used by the population evaluation
    path: every entry equals ``sae(outputs[b], reference)``
    bit for bit.  For uint8 inputs (the hardware pixel format) the
    differences fit int16 exactly and accumulate in int64; other dtypes
    take :func:`sae`'s own int64 arithmetic, so wide or float values are
    truncated identically to the scalar path instead of wrapping.
    """
    outputs = np.asarray(outputs)
    reference = np.asarray(reference)
    if outputs.ndim != 3 or outputs.shape[1:] != reference.shape:
        raise ValueError(
            f"outputs shape {outputs.shape} does not match reference {reference.shape}"
        )
    if outputs.dtype == np.uint8 and reference.dtype == np.uint8:
        diffs = np.abs(outputs.astype(np.int16) - reference.astype(np.int16))
    else:
        diffs = np.abs(outputs.astype(np.int64) - reference.astype(np.int64))
    return diffs.sum(axis=(1, 2), dtype=np.int64)


def mae(output: np.ndarray, reference: np.ndarray) -> float:
    """Mean absolute error per pixel."""
    output, reference = _check_pair(output, reference)
    return sae(output, reference) / output.size


def mse(output: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared error per pixel."""
    output, reference = _check_pair(output, reference)
    diff = output.astype(np.float64) - reference.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(output: np.ndarray, reference: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB.  Returns ``inf`` for identical images."""
    err = mse(output, reference)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)
