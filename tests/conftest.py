"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np

from defmap import tape


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of calling ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def window_mean_pyramid(image, radii) -> np.ndarray:
    """The (H,W,L,C) blur pyramid of an (H,W,C) image as whole arrays: level
    0 the image, level 1 + i :func:`tape.window_mean` at ``radii[i]`` with
    every pixel of the image as a sample."""
    image = np.asarray(image, dtype=np.float64)
    h, w, c = image.shape
    rc = np.indices((h, w)).reshape(2, -1).T
    blurred = tape.window_mean((1, h, w, c), rc, image.reshape(-1, c), radii,
                               0).data
    return np.stack([image, *blurred.reshape(-1, h, w, c)], axis=2)
