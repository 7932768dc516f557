"""Manufactured solutions on the unit cube with symbolically derived sources.

Every field here is pi^m times a polynomial with integer coefficients in the
six values s_k = sin(pi x_k) and c_k = cos(pi x_k).  The fields are derived
with sympy ``Poly`` arithmetic over the integers in (s, c), by the chain rule

    d/dx_k F = pi (c_k dF/ds_k - s_k dF/dc_k),

so each derivative contributes exactly one factor pi and the integer
polynomial stays exact.  Each derivative also rewrites c_k^2 as 1 - s_k^2,
which keeps every polynomial of degree at most one in each c_k.

Each of u, curl u, curl^2 u and f becomes its own numpy callable mapping
point arrays (..., 3) to values (..., 3).  Its three components are put in
Horner form and lambdified together with common-subexpression elimination,
over the trig values they use.  Points are evaluated in fixed-size blocks
into one preallocated output: each block takes sin and cos of pi X once
(only those the field uses) and evaluates the polynomials; the output is
scaled by pi^m at the end.

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

_S = sp.symbols("s0:3")  # s_k = sin(pi x_k)
_C = sp.symbols("c0:3")  # c_k = cos(pi x_k)
# Horner order: each polynomial is linear in every c_k, so splitting on the
# c_k first leaves the fewest operations after common subexpressions (97
# over the seven distinct fields, against 121 with the s_k first).
_GENS = (*_C, *_S)
_BLOCK = 4096  # points per evaluation block


def _poly(expr) -> sp.Poly:
    return sp.Poly(expr, *_GENS, domain="ZZ")


def _partial(F: sp.Poly, k: int) -> sp.Poly:
    """d/dx_k of F divided by pi, for F of degree at most one in c_k.

    With F = A + c_k B: d/dx_k F = pi (c_k dA/ds_k + (1 - s_k^2) dB/ds_k
    - s_k B), again of degree at most one in c_k.
    """
    s, c = _poly(_S[k]), _poly(_C[k])
    B = F.diff(_C[k])
    A = F - c * B
    return c * A.diff(_S[k]) + (1 - s**2) * B.diff(_S[k]) - s * B


def _curl(field):
    """curl of a field (m, [F0, F1, F2]) = pi^m (F0, F1, F2)."""
    m, F = field
    return m + 1, [
        _partial(F[2], 1) - _partial(F[1], 2),
        _partial(F[0], 2) - _partial(F[2], 0),
        _partial(F[1], 0) - _partial(F[0], 1),
    ]


def _horner(terms: dict, depth: int = 0):
    """Horner form in _GENS[depth:] of {monomial exponents: integer coefficient}.

    Built from the term dict directly: sympy's ``horner`` rebuilds a Poly
    from an expression at every level and took most of the case set-up.
    """
    if depth == len(_GENS):
        return sp.Integer(sum(terms.values()))
    by_power: dict = {}
    for monom, coeff in terms.items():
        by_power.setdefault(monom[depth], {})[monom] = coeff
    g = _GENS[depth]
    powers = sorted(by_power, reverse=True)
    expr = sp.Integer(0)
    for high, low in zip(powers, powers[1:] + [0]):
        expr = (expr + _horner(by_power[high], depth + 1)) * g ** (high - low)
    return expr


def _vectorize(field):
    m, polys = field
    exprs = [_horner(p.as_dict()) for p in polys]
    used = [g for g in _GENS if any(e.has(g) for e in exprs)]
    fn = sp.lambdify(used, exprs, modules="numpy", cse=True)
    sin_axes = [k for k, s in enumerate(_S) if s in used]
    cos_axes = [k for k, c in enumerate(_C) if c in used]
    # _GENS puts the c_k first, so the trig arrays go in as cos, then sin.
    scale = np.pi**m

    def call(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1:] != (3,):
            raise ValueError(f"points must have shape (..., 3), got {X.shape}")
        pts = X.reshape(-1, 3)
        out = np.empty(pts.shape)
        for start in range(0, len(pts), _BLOCK):
            block = slice(start, start + _BLOCK)
            angles = np.multiply(pts[block].T, np.pi, order="C")
            trig = (*np.cos(angles[cos_axes]), *np.sin(angles[sin_axes]))
            for c, v in enumerate(fn(*trig)):
                out[block, c] = v  # a constant component broadcasts
        out *= scale
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
    u = 0, [_poly(0), _poly(0), _poly(_S[0] * _S[1])]
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
    psi = _poly((_S[0] * _S[1] * _S[2]) ** 3)
    u = _curl((0, [_poly(0), _poly(0), psi]))
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
