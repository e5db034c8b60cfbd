"""Geometry of the constant-energy sphere S^{N-1}(sqrt(N)).

Pair rotations, uniform sampling and surface areas.  Large-n area
factors are kept in log form; ratios are assembled by log-subtraction
before exponentiation.
"""

from __future__ import annotations

import math

import numpy as np


def rotate_pair(vi, vj, theta):
    """The post-collision velocities of a single pair."""
    c, s = np.cos(theta), np.sin(theta)
    return vi * c + vj * s, -vi * s + vj * c


# entries per block of rows whose squares are summed at once.  The block's
# 64 KiB of squares stay under glibc's default 128 KiB mmap threshold, so
# they come from and return to the heap; a larger block, freed next to the
# batch-sized result, pushes the heap top past the trim threshold, and the
# pages are returned and faulted in again on every call
_BLOCK = 2**13


def uniform_sphere_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) array of independent uniform points on S^{n-1}(sqrt(n)).

    The squares for the row norms are taken a block of rows at a time, so
    the only array of the batch's size is the result; a row longer than
    the block is squared on its own.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    g = rng.standard_normal((size, n))
    rows = max(1, _BLOCK // n)
    for start in range(0, size, rows):
        block = g[start:start + rows]
        block *= np.sqrt(n / np.sum(block * block, axis=1))[:, None]
    return g


def log_sphere_area(n: int) -> float:
    """log of the surface area of the unit (n-1)-sphere in R^n."""
    if n <= 0:
        raise ValueError("n must be positive")
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)
