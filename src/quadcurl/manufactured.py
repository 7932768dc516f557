"""Manufactured solutions on the unit cube with exactly derived sources.

Every field here is pi^m times a polynomial with integer coefficients in the
six values c_k = cos(pi x_k) and s_k = sin(pi x_k), held in reference.py's
exponent-dict ring {(c0, c1, c2, s0, s1, s2) exponents: int}.  Derivatives
follow the chain rule

    d/dx_k F = pi (c_k dF/ds_k - s_k dF/dc_k),

so each one contributes exactly one factor pi and the integer polynomial
stays exact.  Each derivative also rewrites c_k^2 as 1 - s_k^2, which keeps
every polynomial of degree at most one in each c_k.

Each of u, curl u, curl^2 u and f becomes its own numpy callable mapping
point arrays (..., 3) to values (..., 3).  Its three components are written
in Horner form as Python source over the six names c0, ..., s2, each
compiled once into a lambda.  Points are evaluated in blocks large enough
for numpy to run each Horner step in place, into one preallocated output,
and the output is scaled by pi^m at the end.  The blocks read slices of one
(6, npts) table of c_k and s_k, whose rows are filled as the fields need
them.  All fields share the table of the last read-only point array they
saw: a source solve samples its load and the exact fields of its error
integrals on the one array of ``fespace.SAMPLE_DEGREE`` points that
``fespace.map_points`` keeps for the mesh, so it takes sin and cos of those
points once.

The fourth-order case uses the potential psi = sin^3(pi x) sin^3(pi y)
sin^3(pi z) and u = curl(0, 0, psi).  The cubed sines matter: they make both
u x n and (curl u) x n vanish on every face of the cube (squared sines leave
a nonzero tangential curl trace), which is exactly the pair of essential
boundary conditions of the fourth-order problem.

:func:`smooth_field` gives the interpolation study its field
u = (s1 s2, s2 s0, s0 s1) and curl u, built the same way.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reference import vec_curl

# Exponent order of the ring, which is also the Horner order: each
# polynomial is linear in every c_k, so splitting on the c_k first leaves the
# fewest operations (158 over the seven distinct fields, against 176 with the
# s_k first).
_GENS = ("c0", "c1", "c2", "s0", "s1", "s2")
# Points per evaluation block.  numpy elides a temporary only for arrays of
# at least 256 KiB, here 32768 float64: at 4096 points every operation of a
# Horner step allocated a fresh array, and a field took 1.2-1.6x as long
# (35k-83k points, warm trig table).
_BLOCK = 32768

# (weakref to a point array, its _trig table, the set of rows filled) for the
# last read-only point array the fields saw, or None.  Threads racing on it
# without a lock can only miss the memo or fill a row twice with the same
# values, never read a row that is not yet filled.
_trig_memo = None


def _partial(F: dict, k: int) -> dict:
    """d/dx_k of F divided by pi, for F of degree at most one in c_k.

    With s = s_k, c = c_k and c^2 = 1 - s^2, a term a s^e becomes
    a e c s^(e-1) and a term a c s^e becomes a e s^(e-1) - a (e+1) s^(e+1).
    """
    out: dict = {}
    for exp, a in F.items():
        e = exp[3 + k]
        if exp[k]:
            terms = ((0, e - 1, a * e), (0, e + 1, -a * (e + 1)))
        else:
            terms = ((1, e - 1, a * e),)
        for c_pow, s_pow, coeff in terms:
            if coeff:
                new = list(exp)
                new[k], new[3 + k] = c_pow, s_pow
                new = tuple(new)
                out[new] = out.get(new, 0) + coeff
    return {exp: a for exp, a in out.items() if a}


def _curl(field):
    """curl of a field (m, [F0, F1, F2]) = pi^m (F0, F1, F2)."""
    m, F = field
    return m + 1, vec_curl(F, _partial)


def _horner(terms: dict, depth: int = 0) -> str:
    """Python source of the Horner form in _GENS[depth:] of {exponents: int}."""
    if depth == len(_GENS):
        return str(sum(terms.values()))
    by_power: dict = {}
    for monom, coeff in terms.items():
        by_power.setdefault(monom[depth], {})[monom] = coeff
    powers = sorted(by_power, reverse=True)
    src = None
    for high, low in zip(powers, powers[1:] + [0]):
        inner = _horner(by_power[high], depth + 1)
        src = inner if src is None else f"({src} + {inner})"
        src += f" * {_GENS[depth]}" * (high - low)
    return src


def _blocks(npts: int):
    """range(npts) in npts // _BLOCK (at least one) near-equal slices, so no
    block is shorter than _BLOCK unless it is the only one."""
    count = max(npts // _BLOCK, 1)
    return [slice(i * npts // count, (i + 1) * npts // count) for i in range(count)]


def _forget(ref) -> None:
    """Drop the memo when its array is collected, unless a newer array replaced it."""
    global _trig_memo
    memo = _trig_memo
    if memo is not None and memo[0] is ref:
        _trig_memo = None


def _trig(X: np.ndarray, pts: np.ndarray, used: list) -> np.ndarray:
    """(6, npts) table of the _GENS over pts = X.reshape(-1, 3); rows ``used`` are set.

    The table of a read-only array that owns its memory (as ``map_points``
    returns) is kept, with the rows set so far, until that array is collected
    or another one takes its place.  A writeable array or a view is never
    kept: its values can change between calls.
    """
    global _trig_memo
    memo = _trig_memo
    if memo is not None and memo[0]() is X:
        _, table, done = memo
    else:
        table, done = np.empty((len(_GENS), len(pts))), set()
        if not X.flags.writeable and X.base is None:
            _trig_memo = (weakref.ref(X, _forget), table, done)
    missing = [i for i in used if i not in done]
    if missing:
        for block in _blocks(len(pts)):
            angles = np.multiply(pts[block].T, np.pi, order="C")
            for i in missing:
                (np.cos if i < 3 else np.sin)(angles[i % 3], out=table[i, block])
        done.update(missing)
    return table


def _vectorize(field):
    m, polys = field
    # The source holds only integer literals and the six names, so the
    # compiled lambdas read nothing else.  One lambda per component: each
    # result is stored before the next component's temporaries are made.
    fns = [eval(f"lambda {', '.join(_GENS)}: {_horner(p) if p else 0}", {}) for p in polys]
    used = [i for i in range(len(_GENS)) if any(monom[i] for p in polys for monom in p)]
    scale = np.pi**m

    def call(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1:] != (3,):
            raise ValueError(f"points must have shape (..., 3), got {X.shape}")
        pts = X.reshape(-1, 3)
        table = _trig(X, pts, used)
        out = np.empty(pts.shape)
        for block in _blocks(len(pts)):
            rows = table[:, block]  # rows of generators the field does not use may be unset
            for c, fn in enumerate(fns):
                out[block, c] = fn(*rows)  # a constant component broadcasts
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

    u: callable
    curl_u: callable
    curl2_u: callable
    f: callable
    tangential_curl_zero: bool


@lru_cache(maxsize=None)
def curlcurl_sine_case() -> ManufacturedCase:
    """u = sin(pi x) sin(pi y) e_z, f = curl curl u = 2 pi^2 u; div u = 0."""
    u = 0, ({}, {}, {(0, 0, 0, 1, 1, 0): 1})  # s0 s1 e_z
    cu = _curl(u)
    c2u = _curl(cu)
    return ManufacturedCase(
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
    psi = {(0, 0, 0, 3, 3, 3): 1}  # (s0 s1 s2)^3
    u = _curl((0, ({}, {}, psi)))
    cu = _curl(u)
    c2u = _curl(cu)
    f = _curl(_curl(c2u))
    return ManufacturedCase(
        u=_vectorize(u),
        curl_u=_vectorize(cu),
        curl2_u=_vectorize(c2u),
        f=_vectorize(f),
        tangential_curl_zero=True,
    )


@lru_cache(maxsize=None)
def smooth_field():
    """u = (s1 s2, s2 s0, s0 s1) and curl u: a smooth nonpolynomial test field."""
    u = 0, ({(0, 0, 0, 0, 1, 1): 1}, {(0, 0, 0, 1, 0, 1): 1}, {(0, 0, 0, 1, 1, 0): 1})
    return _vectorize(u), _vectorize(_curl(u))
