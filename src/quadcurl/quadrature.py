"""Quadrature rules on the reference tetrahedron, triangle, and segment.

Simplex rules are conical products: the tetrahedron {x,y,z >= 0, x+y+z <= 1}
is the image of the unit cube under the collapsing map

    x = a,   y = b (1 - a),   z = c (1 - a - b),

whose Jacobian (1-a)^2 (1-b) is absorbed exactly by Gauss-Jacobi weights with
exponents (2,0) and (1,0) in the first two directions.  A product of n-point
Gauss rules is then exact for all polynomials of total degree <= 2n - 1, with
strictly positive weights at interior points, for any requested degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import QuadratureError

MAX_DEGREE = 40


@dataclass(frozen=True)
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
def tet_rule(degree: int) -> QuadRule:
    """Rule exact for polynomials of total degree <= degree on the unit tet.

    Each rule is built once and shared; its arrays are read-only.
    """
    n = _npoints_for(degree)
    a, wa = _gauss_jacobi01(n, 2)
    b, wb = _gauss_jacobi01(n, 1)
    c, wc = _gauss_jacobi01(n, 0)
    A, B, C = np.meshgrid(a, b, c, indexing="ij")
    x = A
    y = B * (1.0 - A)
    z = C * (1.0 - A) * (1.0 - B)
    W = wa[:, None, None] * wb[None, :, None] * wc[None, None, :]
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    W = W.ravel()
    pts.flags.writeable = W.flags.writeable = False
    return QuadRule(pts, W, degree)


def triangle_rule(degree: int) -> QuadRule:
    """Rule exact for polynomials of total degree <= degree on the unit triangle."""
    n = _npoints_for(degree)
    a, wa = _gauss_jacobi01(n, 1)
    b, wb = _gauss_jacobi01(n, 0)
    A, B = np.meshgrid(a, b, indexing="ij")
    x = A
    y = B * (1.0 - A)
    W = wa[:, None] * wb[None, :]
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    return QuadRule(pts, W.ravel(), degree)


def segment_rule(degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1], exact through the requested degree."""
    n = _npoints_for(degree)
    x, w = _gauss_jacobi01(n, 0)
    return QuadRule(x[:, None], w, degree)

