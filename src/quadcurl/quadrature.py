"""Quadrature rules on the reference tetrahedron, triangle, and segment.

All three are one conical product: the unit simplex of dimension d is the
image of the unit cube under the collapsing map

    x_i = a_i (1 - a_0) ... (1 - a_{i-1}),

e.g. x = a, y = b (1 - a), z = c (1 - a) (1 - b) on the tetrahedron, whose
Jacobian (1-a)^2 (1-b) is absorbed exactly by Gauss-Jacobi weights with
exponents (2,0) and (1,0) in the first two directions; axis i takes exponent
d-1-i.  A product of n-point Gauss rules is then exact for all polynomials
of total degree <= 2n - 1, with strictly positive weights at interior
points, for any requested degree.  Each rule is built once and shared; its
arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.special import roots_jacobi

from .errors import QuadratureError

MAX_DEGREE = 40


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Points (n, dim) on the reference simplex and matching weights (n,)."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def num_points(self) -> int:
        return self.weights.shape[0]


def _gauss_jacobi01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integral of (1-t)^alpha f(t) over [0, 1]."""
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def _npoints_for(degree: int) -> int:
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise QuadratureError(f"quadrature degree must be a nonnegative integer, got {degree!r}")
    if degree > MAX_DEGREE:
        raise QuadratureError(f"quadrature degree {degree} exceeds supported maximum {MAX_DEGREE}")
    return degree // 2 + 1


@lru_cache(maxsize=None)  # bounded: only degrees 0..MAX_DEGREE succeed
def _collapsed_rule(dim: int, degree: int) -> QuadRule:
    """Conical-product rule on the unit simplex of dimension dim; read-only.

    Axis i takes Gauss-Jacobi exponent dim-1-i, and
    x_i = a_i (1 - a_0) ... (1 - a_{i-1}), multiplied left to right.
    """
    n = _npoints_for(degree)
    axes = [_gauss_jacobi01(n, dim - 1 - i) for i in range(dim)]
    grid = np.meshgrid(*(a for a, _ in axes), indexing="ij")
    pts = np.empty((n**dim, dim))
    for i, x in enumerate(grid):
        for a in grid[:i]:
            x = x * (1.0 - a)
        pts[:, i] = x.ravel()
    W = reduce(np.multiply.outer, (w for _, w in axes)).ravel()
    pts.flags.writeable = W.flags.writeable = False
    return QuadRule(pts, W, degree)


def tet_rule(degree: int) -> QuadRule:
    """Rule exact for polynomials of total degree <= degree on the unit tet."""
    return _collapsed_rule(3, degree)


def triangle_rule(degree: int) -> QuadRule:
    """Rule exact for polynomials of total degree <= degree on the unit triangle."""
    return _collapsed_rule(2, degree)


def segment_rule(degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1], exact through the requested degree."""
    return _collapsed_rule(1, degree)
