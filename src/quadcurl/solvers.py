"""Linear algebra kernels: saddle-point solve and symmetric eigensolve.

These wrap LAPACK/SuperLU/ARPACK behind small contracts: the saddle solve
verifies its relative residual, and the generalized eigensolver returns B-orthonormal vectors whose relative
residuals it checks against a tolerance.  The eigensolver is one sparse path:
Lanczos in shift-invert mode on a single symmetric-mode LU of A - sigma B,
with a known subspace (the discrete gradients) projected out B-orthogonally
from every iterate, so its modes never appear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseMatrix
from .errors import EigenSolveError, SingularSystemError

_SADDLE_RESIDUAL_TOL = 1e-9
# ARPACK's Ritz-value tolerance.  Machine precision (ARPACK's default) took
# 1.4x the operator applications of 1e-12 on the order-1 and order-2 cube
# pencils; residuals stayed below 1e-12 either way, far under the 1e-8 gate.
_LANCZOS_TOL = 1e-12


@dataclass
class EigenResult:
    """Ascending eigenvalues, B-orthonormal eigenvector columns, residuals.

    ``residuals`` are the relative residuals ||A x - lam B x|| / (|lam| ||B x||).
    ``n_zero`` is P, the dimension of the deflated subspace (0 without one);
    those modes sit at lam = 0 for the model problems and are never returned.
    ``div_residuals`` are ||(B Y)^T x|| / ||B x|| for the deflation basis Y:
    for the gradient space, the discrete divergence of each vector.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    n_zero: int
    div_residuals: np.ndarray


def _unwrap(A):
    if isinstance(A, SparseMatrix):
        return A.mat
    return A


def _rel_residual(A, x, b) -> float:
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm(A @ x - b) / nb)


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


def saddle_solve(K, G, f, g=None):
    """Solve the symmetric saddle system [[K, G], [G^T, 0]] (u, p) = (f, g).

    K must be symmetric (typically PSD) and the full block matrix
    nonsingular.  Blocks may themselves be block matrices; only symmetry of
    the assembled system matters to the factorization.
    """
    Km = sp.csr_matrix(_unwrap(K))
    Gm = sp.csr_matrix(_unwrap(G))
    n, p = Gm.shape
    f = np.asarray(f, dtype=np.float64)
    rhs = np.concatenate([f, np.zeros(p) if g is None else np.asarray(g, dtype=np.float64)])
    A = sp.bmat([[Km, Gm], [Gm.T, None]], format="csc")
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SingularSystemError(f"saddle factorization failed: {exc}") from exc
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("saddle solve produced non-finite values")
    res = _rel_residual(A, x, rhs)
    if res > _SADDLE_RESIDUAL_TOL:
        raise SingularSystemError(
            f"saddle solve residual {res:.3e} exceeds {_SADDLE_RESIDUAL_TOL}"
        )
    return x[:n], x[n:], res


def _b_projector(Y: sp.csr_matrix, B: sp.csr_matrix):
    """In-place B-orthogonal projection off range(Y): z -= Y (Y^T B Y)^-1 (B Y)^T z.

    Returns the projector and (B Y)^T.  Y^T B Y is factored once; a
    non-positive pivot means the columns of Y are not B-independent, so the
    deflated dimension would not be P.
    """
    BYt = (B @ Y).T.tocsr()
    try:
        gram = _symmetric_lu(BYt @ Y)
    except RuntimeError as exc:
        raise EigenSolveError(f"deflation Gram matrix is singular: {exc}") from exc
    if gram.U.diagonal().min() <= 0.0:
        raise EigenSolveError("non-positive pivot in the deflation Gram matrix Y^T B Y")

    def project(z: np.ndarray) -> np.ndarray:
        z -= Y @ gram.solve(BYt @ z)
        return z

    return project, BYt


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


def gen_sym_eig(A, B, count: int, sigma: float, deflate=None, tol: float = 1e-8) -> EigenResult:
    """The `count` smallest eigenpairs of A x = lam B x off the deflated subspace.

    A and B are sparse symmetric, B positive semidefinite and definite on its
    nonzero rows, and A - sigma B (sigma < 0) must factor without pivoting:
    SPD, or symmetric quasi-definite like the quad-curl block pencil.
    ``deflate`` (n x P) spans a subspace to leave out, typically the nullspace
    of A; its B-Gram matrix must be positive definite.  Every eigenvalue of
    the rest must be positive.

    A - sigma B is factored once; each Lanczos step applies the projected
    shift-invert operator (A - sigma B)^-1 to the B-image ARPACK supplies
    (mode 3, which accepts a semidefinite B).  The operator has rank
    R - P, R the count of nonzero rows of B; when `count` equals that rank,
    Lanczos has no room, and a Rayleigh-Ritz on the operator's range gives
    the whole spectrum exactly.  Raises EigenSolveError when ARPACK fails or
    any relative residual exceeds `tol`.
    """
    A = sp.csr_matrix(_unwrap(A), dtype=np.float64)
    B = sp.csr_matrix(_unwrap(B), dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise EigenSolveError("pencil matrices must be square and equal-sized")
    if not sigma < 0.0:
        raise EigenSolveError(f"shift sigma must be negative, got {sigma}")
    Y = sp.csr_matrix((n, 0)) if deflate is None else sp.csr_matrix(_unwrap(deflate))
    if Y.shape[0] != n:
        raise EigenSolveError(f"deflation basis has {Y.shape[0]} rows, pencil has {n}")
    P = Y.shape[1]
    nonzero_rows = np.flatnonzero(B.getnnz(axis=1))
    rank = len(nonzero_rows) - P
    if not 1 <= count <= rank:
        raise EigenSolveError(f"count {count} out of range for {rank} eigenvalues")

    try:
        lu = _symmetric_lu(A - sigma * B)
    except RuntimeError as exc:
        raise EigenSolveError(f"shifted pencil A - sigma B is singular: {exc}") from exc
    if P:
        project, BYt = _b_projector(Y, B)
    else:
        project, BYt = (lambda z: z), sp.csr_matrix((0, n))

    def op(v):
        return project(lu.solve(v))

    if count == rank:
        vals, vecs = _range_ritz(op, A, B, nonzero_rows, rank)
    else:
        ncv = min(max(2 * count + 1, 20), rank)
        v0 = np.random.default_rng(0).standard_normal(n)
        opinv = spla.LinearOperator((n, n), matvec=op, dtype=np.float64)
        try:
            vals, vecs = spla.eigsh(A, count, M=B, sigma=sigma, which="LM",
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
    div = np.linalg.norm(BYt @ vecs, axis=0) / bnorm
    worst = float(np.max(residuals))
    if not worst <= tol:  # a NaN residual fails too
        raise EigenSolveError(f"eigenpair relative residual {worst:.3e} exceeds {tol:.1e}")
    return EigenResult(values=vals, vectors=vecs, residuals=residuals, n_zero=P,
                       div_residuals=div)
