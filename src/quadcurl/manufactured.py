"""Manufactured solutions on the unit cube with symbolically derived sources.

Fields are built once with sympy.  Each of u, curl u, curl^2 u and f becomes
its own numpy callable mapping point arrays (..., 3) to values (..., 3).  The
three components of a field are lambdified together with common-subexpression
elimination, so they share sin(pi x), cos(pi x) and the like.  Points are
evaluated in fixed-size blocks into one preallocated output, which keeps the
thirty-odd temporaries of the sin^3 source cache-sized however many points a
caller passes.

The fourth-order case uses the potential psi = sin^3(pi x) sin^3(pi y)
sin^3(pi z) and u = curl(0, 0, psi).  The cubed sines matter: they make both
u x n and (curl u) x n vanish on every face of the cube (squared sines leave
a nonzero tangential curl trace), which is exactly the pair of essential
boundary conditions of the fourth-order problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

_X, _Y, _Z = sp.symbols("x y z")
_BLOCK = 4096  # points per evaluation block


def _curl(F):
    return sp.Matrix(
        [
            sp.diff(F[2], _Y) - sp.diff(F[1], _Z),
            sp.diff(F[0], _Z) - sp.diff(F[2], _X),
            sp.diff(F[1], _X) - sp.diff(F[0], _Y),
        ]
    )


def _vectorize(exprs):
    fn = sp.lambdify((_X, _Y, _Z), list(exprs), modules="numpy", cse=True)

    def call(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1:] != (3,):
            raise ValueError(f"points must have shape (..., 3), got {X.shape}")
        pts = X.reshape(-1, 3)
        out = np.empty(pts.shape)
        for start in range(0, len(pts), _BLOCK):
            block = slice(start, start + _BLOCK)
            x, y, z = pts[block].T
            for c, v in enumerate(fn(x, y, z)):
                out[block, c] = v  # a constant component broadcasts
        return out.reshape(X.shape)

    return call


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic solution bundle: u, its curls, and the source f.

    ``tangential_curl_zero`` declares whether (curl u) x n = 0 holds on the
    cube boundary (required by the fourth-order problem; the second-order
    problem only needs u x n = 0).
    """

    name: str
    u: callable
    curl_u: callable
    curl2_u: callable
    f: callable
    tangential_curl_zero: bool

    def boundary_trace_violation(self, samples_per_face: int = 40) -> float:
        """Largest tangential-trace magnitude of u (and curl u when declared
        zero) sampled on the cube boundary."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for axis in range(3):
            for val in (0.0, 1.0):
                pts = rng.random((samples_per_face, 3))
                pts[:, axis] = val
                nu = np.zeros(3)
                nu[axis] = 1.0
                worst = max(worst, np.abs(np.cross(self.u(pts), nu)).max())
                if self.tangential_curl_zero:
                    worst = max(worst, np.abs(np.cross(self.curl_u(pts), nu)).max())
        return worst

    def divergence_violation(self, samples: int = 100, h: float = 1e-5) -> float:
        """Max |div u| at interior sample points, by central differences."""
        rng = np.random.default_rng(11)
        pts = 0.1 + 0.8 * rng.random((samples, 3))
        div = np.zeros(samples)
        for axis in range(3):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, axis] += h
            dm[:, axis] -= h
            div += (self.u(dp)[:, axis] - self.u(dm)[:, axis]) / (2.0 * h)
        return float(np.abs(div).max())


@lru_cache(maxsize=None)
def curlcurl_sine_case() -> ManufacturedCase:
    """u = sin(pi x) sin(pi y) e_z, f = curl curl u = 2 pi^2 u; div u = 0."""
    u = sp.Matrix([0, 0, sp.sin(sp.pi * _X) * sp.sin(sp.pi * _Y)])
    cu = _curl(u)
    c2u = _curl(cu)
    return ManufacturedCase(
        name="sine-curlcurl",
        u=_vectorize(u),
        curl_u=_vectorize(cu),
        curl2_u=_vectorize(c2u),
        f=_vectorize(c2u),
        tangential_curl_zero=False,
    )


@lru_cache(maxsize=None)
def quadcurl_sin3_case() -> ManufacturedCase:
    """u = curl(0, 0, psi) with psi = sin^3(pi x) sin^3(pi y) sin^3(pi z).

    Satisfies div u = 0, u x n = 0 and (curl u) x n = 0 on the cube boundary;
    the source is f = curl^4 u.
    """
    psi = (sp.sin(sp.pi * _X) * sp.sin(sp.pi * _Y) * sp.sin(sp.pi * _Z)) ** 3
    u = _curl(sp.Matrix([0, 0, psi]))
    cu = _curl(u)
    c2u = _curl(cu)
    f = _curl(_curl(c2u))
    return ManufacturedCase(
        name="sin3-quadcurl",
        u=_vectorize(u),
        curl_u=_vectorize(cu),
        curl2_u=_vectorize(c2u),
        f=_vectorize(f),
        tangential_curl_zero=True,
    )
