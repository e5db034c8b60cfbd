"""One-dimensional density toolkit.

Gridded probability densities on a truncation window, the two-Gaussian
mixture family used as generators of conditioned states, and moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AccuracyError, ConfigurationError
from .quadrature import trapezoid_weights

DEFAULT_V_MAX = 16.0
DEFAULT_NODES = 4096


@dataclass(frozen=True)
class GridDensity1D:
    """A nonnegative density tabulated on a uniform grid, unit mass.

    ``pdf`` is the optional closed-form evaluator attached by the analytic
    constructors; without it the density is a table only and cannot be
    called.  ``components`` holds the (weight, variance) pairs of the
    centred Gaussians whose mixture the density is, for the constructors
    that build one (:func:`gaussian`, :func:`mixture`), and is None
    otherwise.
    """

    v_max: float
    nodes: np.ndarray
    values: np.ndarray
    quadrature_weights: np.ndarray
    pdf: Optional[Callable] = None
    tag: str = ""
    components: Optional[tuple] = None

    def __call__(self, v):
        """Evaluate the density's closed form."""
        if self.pdf is None:
            raise ConfigurationError(
                f"density {self.tag or 'f'} is a table only, with no pdf")
        return self.pdf(v)

    def sup_norm(self) -> float:
        return float(np.max(self.values))


def from_callable(pdf, v_max, tag="", components=None):
    """Tabulate ``pdf`` on a symmetric DEFAULT_NODES-point grid and
    renormalize to unit mass; components as on :class:`GridDensity1D`."""
    nodes = np.linspace(-v_max, v_max, DEFAULT_NODES)
    vals = np.maximum(np.asarray(pdf(nodes), dtype=float), 0.0)
    w = trapezoid_weights(nodes)
    total = float(np.sum(vals * w))
    if not total > 0:
        raise ValueError("pdf vanishes on the whole grid")
    return GridDensity1D(v_max, nodes, vals / total, w, tag=tag,
                         pdf=lambda v: np.asarray(pdf(v)) / total,
                         components=components)


def gaussian(a: float) -> GridDensity1D:
    """Centered Gaussian with variance a, on |v| <= max(16, 8 sqrt(a))."""
    if a <= 0:
        raise ValueError("variance must be positive")
    v_max = max(DEFAULT_V_MAX, 8.0 * np.sqrt(a))

    def pdf(v):
        return np.exp(-np.asarray(v) ** 2 / (2.0 * a)) / np.sqrt(2.0 * np.pi * a)

    return from_callable(pdf, v_max, f"gauss(a={a:g})", ((1.0, float(a)),))


def mixture(delta) -> GridDensity1D:
    """Hot/cold Gaussian mixture, weight delta in (0, 1) on the hot part,
    with unit second moment, on |v| <= max(16, 8 standard deviations of
    its wider component)."""
    d = float(delta)
    if not 0.0 < d < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    a_hot = 1.0 / (2.0 * d)
    a_cold = 1.0 / (2.0 * (1.0 - d))
    v_max = max(DEFAULT_V_MAX, 8.0 / np.sqrt(2.0 * min(d, 1.0 - d)))

    def pdf(v):
        v = np.asarray(v)
        return (
            d * np.exp(-(v * v) / (2 * a_hot)) / np.sqrt(2 * np.pi * a_hot)
            + (1 - d) * np.exp(-(v * v) / (2 * a_cold)) / np.sqrt(2 * np.pi * a_cold)
        )

    return from_callable(pdf, v_max, tag=f"mix(delta={d:g})",
                         components=((d, a_hot), (1.0 - d, a_cold)))


def moment(f: GridDensity1D, p: int) -> float:
    """p-th moment by quadrature, with a crude tail-mass check."""
    if p < 0:
        raise ValueError("moment order must be nonnegative")
    g = np.abs(f.nodes) ** p * f.values
    result = float(np.sum(f.nodes**p * f.values * f.quadrature_weights))
    # an even moment is the integral of g itself
    scale = result if p % 2 == 0 and result else max(abs(result), 1.0)
    dv = f.nodes[1] - f.nodes[0]
    tail = (g[0] + g[-1]) * dv * 10.0
    if tail > 1e-10 * max(scale, 1e-30):
        raise AccuracyError(
            f"moment p={p}: estimated tail contribution {tail:.2e} exceeds tolerance"
        )
    return result
