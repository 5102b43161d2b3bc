"""Sliding-window extraction.

The hardware platform rebuilds the 3x3 pixel window around the current
output pixel with three image-line FIFOs (one per window row).  Every array
input is fed, through a 9-to-1 multiplexer, with one of the nine pixels of
that window (paper §III.A).

Here the window is materialised as nine whole-image planes, one per window
position, so that a candidate circuit can be evaluated with purely
vectorised operations: plane ``k`` holds, for every output pixel, the value
of window pixel ``k``.  Border pixels use edge replication, the natural
behaviour of line buffers that repeat the first/last valid line/column.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WINDOW_SIZE", "N_WINDOW_PIXELS", "extract_windows", "freeze_planes", "window_offsets"]

#: Window side (3x3 windows, as in the paper).
WINDOW_SIZE = 3

#: Number of selectable window pixels (the 9-to-1 input multiplexers).
N_WINDOW_PIXELS = WINDOW_SIZE * WINDOW_SIZE


def window_offsets() -> tuple:
    """Return the (dy, dx) offset of each window plane, in row-major order.

    Index 0 is the top-left neighbour, index 4 the centre pixel and index 8
    the bottom-right neighbour.
    """
    half = WINDOW_SIZE // 2
    return tuple(
        (dy, dx)
        for dy in range(-half, half + 1)
        for dx in range(-half, half + 1)
    )


def extract_windows(image: np.ndarray) -> np.ndarray:
    """Expand ``image`` into the nine shifted window planes.

    Parameters
    ----------
    image:
        2-D uint8 grayscale image of shape ``(H, W)``.

    Returns
    -------
    numpy.ndarray
        uint8 array of shape ``(9, H, W)``; ``planes[k][y, x]`` is the value
        of window pixel ``k`` for the window centred at ``(y, x)``, with edge
        replication at the borders.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise TypeError(f"expected uint8 image, got dtype {image.dtype}")
    h, w = image.shape
    if h < WINDOW_SIZE or w < WINDOW_SIZE:
        raise ValueError(
            f"image must be at least {WINDOW_SIZE}x{WINDOW_SIZE}, got {image.shape}"
        )
    half = WINDOW_SIZE // 2
    padded = np.pad(image, half, mode="edge")
    planes = np.empty((N_WINDOW_PIXELS, h, w), dtype=np.uint8)
    for k, (dy, dx) in enumerate(window_offsets()):
        planes[k] = padded[half + dy : half + dy + h, half + dx : half + dx + w]
    return planes


def freeze_planes(planes: np.ndarray) -> np.ndarray:
    """``planes`` copied onto an immutable ``bytes`` buffer.

    Window planes that can never change spare the backend's plane stores
    their per-call byte compare against in-place edits.
    """
    return np.frombuffer(planes.tobytes(), dtype=planes.dtype).reshape(planes.shape)
