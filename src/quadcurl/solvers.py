"""Linear algebra kernels: symmetric eigensolve and saddle-point solve.

Both read a ``ShiftedFactor``: the symmetric-mode LU of A - sigma B with no
pivoting (sigma < 0, A - sigma B SPD or quasi-definite) and the B-orthogonal
projector off range(Y), the discrete gradients, which span the kernel of A.
The eigensolver runs Lanczos in shift-invert mode on the LU and projects
every iterate, so the gradient modes never appear.  The saddle solve takes
its multiplier from the projector's Gram factor and its primal field by
projected iterative refinement on the LU, so no bordered matrix is ever
factored.  Each verifies its relative residuals and raises when a contract
is broken.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenSolveError, SingularSystemError

_SADDLE_RESIDUAL_TOL = 1e-9
_EIG_RESIDUAL_TOL = 1e-8
# Gate on EigenResult.div_residuals.  The projector leaves every returned
# vector B-orthogonal to range(Y) up to roundoff: measured values on the cube,
# jittered and reentrant meshes are at most 2.4e-15.
_EIG_DIV_TOL = 1e-10
_REFINE_STEPS = 10
# Refinement stops at the first step that does not cut the residual of the
# first block row by this factor: roundoff floor reached.
_REFINE_STALL = 0.5
# ... or once it is below the roundoff of evaluating it, _REFINE_FLOOR_FACTOR
# * || |K| |u| || / ||f||.  On cube-mesh ladders (Kuhn and jittered Delaunay,
# curl-curl and quad-curl, orders 1-2) that bound sits 2-5x above the level
# the residual settles at, and every value above the level is at least 2x
# above the bound.  The normwise eps ||K||_1 ||u|| / ||f|| sat up to 90x above
# the level on the Delaunay meshes and stopped a step short of it.
_REFINE_FLOOR_FACTOR = np.finfo(np.float64).eps
# ARPACK's Ritz-value tolerance.  Machine precision (ARPACK's default) took
# 1.4x the operator applications of 1e-12 on the order-1 and order-2 cube
# pencils; residuals stayed below 1e-12 either way, far under _EIG_RESIDUAL_TOL.
_LANCZOS_TOL = 1e-12


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues, B-orthonormal eigenvector columns, residuals.

    ``residuals`` are the relative residuals ||A x - lam B x|| / (|lam| ||B x||).
    ``n_zero`` is P, the dimension of the deflated subspace (0 without one);
    those modes sit at lam = 0 for the model problems and are never returned.
    ``div_residuals`` are ||(B Y)^T x|| / ||B x|| for the deflation basis Y:
    for the gradient space, the discrete divergence of each vector.
    ``gen_sym_eig`` raises instead of returning one above _EIG_DIV_TOL.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    n_zero: int
    div_residuals: np.ndarray


@dataclass(eq=False)
class ShiftedFactor:
    """The set-up of a pencil (A, B) at one shift, with deflation basis Y (n x P).

    ``lu`` factors A - sigma B; ``BYt`` is (B Y)^T, compressed by rows, whose
    transpose is the saddle constraint block; ``gram_solve`` solves with Y^T B Y.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    Y: sp.csr_matrix
    sigma: float
    lu: spla.SuperLU
    BYt: sp.csr_matrix
    gram_solve: Callable[[np.ndarray], np.ndarray]

    def project(self, z: np.ndarray) -> np.ndarray:
        """In-place B-orthogonal projection off range(Y): z -= Y (Y^T B Y)^-1 (B Y)^T z."""
        z -= self.Y @ self.gram_solve(self.BYt @ z)
        return z


def _symmetric_lu(A):
    """SuperLU with a symmetric ordering and no pivoting.

    Safe for SPD and for symmetric quasi-definite matrices
    [[D1, C^T], [C, -D2]] with D1, D2 SPD, which factor stably without
    pivoting under any symmetric ordering (Vanderbei, SIAM J. Optim. 5, 1995).
    """
    return spla.splu(
        sp.csc_matrix(A),
        diag_pivot_thresh=0.0,
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )


def shifted_factor(A, B, Y, sigma: float) -> ShiftedFactor:
    """Factor A - sigma B and Y^T B Y once, for every solve on (A, B, Y) at sigma.

    A and B are sparse symmetric, B positive semidefinite, and A - sigma B
    (sigma < 0) must factor without pivoting: SPD, or symmetric quasi-definite
    like the quad-curl block pencil.  Y (n x P, P >= 0) spans the subspace to
    deflate, typically the kernel of A.  Raises SingularSystemError on
    inconsistent shapes, a shift that is not negative, a failed factor, or a
    non-positive Gram pivot: columns of Y that are not B-independent.
    """
    A, B, Y = (sp.csr_matrix(m, dtype=np.float64) for m in (A, B, Y))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n) or Y.shape[0] != n:
        raise SingularSystemError("pencil matrices and deflation basis have inconsistent shapes")
    if not sigma < 0.0:
        raise SingularSystemError(f"shift sigma must be negative, got {sigma}")
    try:
        lu = _symmetric_lu(A - sigma * B)
    except RuntimeError as exc:
        raise SingularSystemError(f"shifted pencil A - sigma B is singular: {exc}") from exc
    BYt = (B @ Y).T.tocsr()
    if not Y.shape[1]:
        return ShiftedFactor(A, B, Y, sigma, lu, BYt, lambda b: b)
    try:
        gram = _symmetric_lu(BYt @ Y)
    except RuntimeError as exc:
        raise SingularSystemError(f"deflation Gram matrix is singular: {exc}") from exc
    if gram.U.diagonal().min() <= 0.0:
        raise SingularSystemError("non-positive pivot in the deflation Gram matrix Y^T B Y")
    return ShiftedFactor(A, B, Y, sigma, lu, BYt, gram.solve)


def saddle_solve(K, G, f, factor: ShiftedFactor):
    """Solve [[K, G], [G^T, 0]] (u, p) = (f, 0) where G = B Y and K Y = 0.

    ``factor`` is ``shifted_factor(K, B, Y, sigma)``; no bordered matrix is
    factored.  Y^T times the first block row leaves (Y^T B Y) p = Y^T f,
    because Y^T K = 0, so p comes from the Gram factor.  u then solves
    K u = f - G p with (B Y)^T u = 0, by iterative refinement on the LU of
    K - sigma B, each correction passed through the B-orthogonal projector
    off range(Y); a step contracts the error by |sigma| / (lambda_1 + |sigma|).
    Refinement stops once the first-row residual is below the roundoff of
    evaluating it, _REFINE_FLOOR_FACTOR * || |K| |u| || with u after the
    first step, or at the first step that fails to halve it.

    Returns (u, p, residual, steps): the relative residual of the bordered
    system with K and G as given, and the refinement steps taken.  Raises
    SingularSystemError when the shapes do not match the factor's,
    refinement has not converged within _REFINE_STEPS steps, or the
    residual exceeds _SADDLE_RESIDUAL_TOL.  A kernel of K larger than
    range(Y), or a G other than B Y, ends in one of the last two.
    """
    f = np.asarray(f, dtype=np.float64)
    n, P = factor.Y.shape
    if K.shape != (n, n) or G.shape != (n, P) or f.shape != (n,):
        raise SingularSystemError("saddle blocks and load do not match the factor's shapes")

    p = factor.gram_solve(factor.Y.T @ f)
    r = f - G @ p
    scale = max(np.linalg.norm(f), np.finfo(np.float64).tiny)
    u = np.zeros(n)
    d = r  # residual of the first block row, f - G p - K u
    last = np.linalg.norm(d) / scale
    for steps in range(1, _REFINE_STEPS + 1):
        u += factor.project(factor.lu.solve(d))
        d = r - K @ u
        res = np.linalg.norm(d) / scale
        if steps == 1:  # u is already within about |sigma| / lambda_1 of its limit
            floor = _REFINE_FLOOR_FACTOR * np.linalg.norm(abs(K) @ np.abs(u)) / scale
        if res < floor or not res < _REFINE_STALL * last:  # a NaN stops too
            break
        last = res
    else:
        raise SingularSystemError(
            f"saddle refinement did not converge in {_REFINE_STEPS} steps")
    res = float(np.hypot(np.linalg.norm(d), np.linalg.norm(G.T @ u)) / scale)
    if not res <= _SADDLE_RESIDUAL_TOL:  # a NaN residual fails too
        raise SingularSystemError(
            f"saddle solve residual {res:.3e} exceeds {_SADDLE_RESIDUAL_TOL}")
    return u, p, res, steps


def _range_ritz(op, A, B, nonzero_rows: np.ndarray, rank: int):
    """All `rank` eigenpairs by Rayleigh-Ritz on range(op), which they span exactly.

    B vanishes off ``nonzero_rows``, so op applied to those unit vectors spans
    range(op); the B-Gram matrix of that spanning set has exactly `rank`
    nonzero eigenvalues, which give a B-orthonormal basis with no threshold.
    """
    E = np.zeros((A.shape[0], len(nonzero_rows)))
    E[nonzero_rows, np.arange(len(nonzero_rows))] = 1.0
    X = op(E)
    d, V = sla.eigh(X.T @ (B @ X))
    Q = X @ (V[:, -rank:] / np.sqrt(d[-rank:]))
    H = Q.T @ (A @ Q)
    vals, Z = sla.eigh(0.5 * (H + H.T))
    return vals, Q @ Z


def gen_sym_eig(factor: ShiftedFactor, count: int) -> EigenResult:
    """The `count` smallest eigenpairs of A x = lam B x off range(Y).

    ``factor`` is the pencil's ``shifted_factor``.  B must be definite on its
    nonzero rows, and every eigenvalue off the deflated subspace positive.
    Each Lanczos step applies the projected shift-invert operator
    (A - sigma B)^-1 to the B-image ARPACK supplies (mode 3, which accepts a
    semidefinite B).  The operator has rank R - P, R the count of nonzero
    rows of B; when `count` equals that rank, Lanczos has no room, and a
    Rayleigh-Ritz on the operator's range gives the whole spectrum exactly.
    Raises EigenSolveError when `count` is not an integer in 1..R - P,
    ARPACK fails, or a relative residual exceeds _EIG_RESIDUAL_TOL or a
    divergence residual (``EigenResult.div_residuals``) _EIG_DIV_TOL.
    """
    A, B, lu, project = factor.A, factor.B, factor.lu, factor.project
    n, P = factor.Y.shape
    nonzero_rows = np.flatnonzero(B.getnnz(axis=1))
    rank = len(nonzero_rows) - P
    if not (isinstance(count, numbers.Integral) and 1 <= count <= rank):
        raise EigenSolveError(f"count {count!r} is not an integer in 1..{rank}")

    def op(v):
        return project(lu.solve(v))

    if count == rank:
        vals, vecs = _range_ritz(op, A, B, nonzero_rows, rank)
    else:
        # ncv also decides which copies of an exactly repeated eigenvalue
        # Lanczos captures, and the residual checks below cannot tell: on the
        # Kuhn n = 3 order-2 Maxwell record at count 3, ncv 12, 16 or 28
        # returns the next eigenvalue in place of the second copy of a double
        # one, and 20 does not.  test_repeated_eigenvalues_survive_every_count
        # pins the cases measured.
        ncv = min(max(2 * count + 1, 20), rank)
        v0 = np.random.default_rng(0).standard_normal(n)
        opinv = spla.LinearOperator((n, n), matvec=op, dtype=np.float64)
        try:
            vals, vecs = spla.eigsh(A, count, M=B, sigma=factor.sigma, which="LM",
                                    OPinv=opinv, ncv=ncv, v0=v0, tol=_LANCZOS_TOL)
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            raise EigenSolveError(f"shift-invert Lanczos failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    if vals[0] <= 0.0:
        raise EigenSolveError(
            f"eigenvalue {vals[0]:.3e} <= 0: A is not positive definite off the deflated space"
        )
    BX = B @ vecs
    bnorm = np.linalg.norm(BX, axis=0)
    residuals = np.linalg.norm(A @ vecs - BX * vals, axis=0) / (vals * bnorm)
    div = np.linalg.norm(factor.BYt @ vecs, axis=0) / bnorm
    worst = float(np.max(residuals))
    if not worst <= _EIG_RESIDUAL_TOL:  # a NaN residual fails too
        raise EigenSolveError(
            f"eigenpair relative residual {worst:.3e} exceeds {_EIG_RESIDUAL_TOL:.1e}")
    worst = float(np.max(div))
    if not worst <= _EIG_DIV_TOL:
        raise EigenSolveError(
            f"eigenvector divergence residual {worst:.3e} exceeds {_EIG_DIV_TOL:.1e}")
    return EigenResult(values=vals, vectors=vecs, residuals=residuals, n_zero=P,
                       div_residuals=div)
