import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from quadcurl import gen_sym_eig, saddle_solve, solvers
from quadcurl.errors import EigenSolveError, SingularSystemError
from quadcurl.solvers import _REFINE_STEPS, shifted_factor


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    return R @ R.T + n * np.eye(n)


def _kernel_pencil(n, P, seed, extra_kernel=0):
    """SPD B and a PSD K with K Y = 0 for a known Y (n x P), plus `extra_kernel`
    kernel vectors outside range(Y); sigma is the source route's shift,
    1e-3 of minus half the first nonzero eigenvalue."""
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n, P))
    B = _random_spd(n, seed + 1) / n
    Z = np.hstack([Y, rng.standard_normal((n, extra_kernel))])
    Q = scipy.linalg.null_space(Z.T)  # Euclidean complement of the kernel
    L = rng.standard_normal((Q.shape[1], Q.shape[1])) + 3.0 * np.eye(Q.shape[1])
    K = Q @ (L @ L.T) @ Q.T
    K = 0.5 * (K + K.T)
    lam = scipy.linalg.eigh(K, B, eigvals_only=True)[P + extra_kernel]
    return K, B, Y, 1e-3 * (-0.5 * lam)


def _bordered_dense(K, G, f):
    n, P = G.shape
    A = np.block([[K, G], [G.T, np.zeros((P, P))]])
    x = np.linalg.solve(A, np.concatenate([f, np.zeros(P)]))
    return x[:n], x[n:]


def test_saddle_solve_manufactured_solution():
    """u and p of the projected refinement match [[K, B Y], [(B Y)^T, 0]] solved densely.

    The load is dominated by its gradient part G p*, which p absorbs; a
    correction not projected off range(Y) would carry that part's roundoff
    into u, amplified by 1 / |sigma|.
    """
    K, B, Y, sigma = _kernel_pencil(14, 3, seed=21)
    rng = np.random.default_rng(22)
    G = B @ Y
    u_star = rng.standard_normal(14)
    u_star -= Y @ np.linalg.solve(G.T @ Y, G.T @ u_star)  # (B Y)^T u* = 0
    p_star = 1e4 * rng.standard_normal(3)
    f = K @ u_star + G @ p_star
    u_dense, p_dense = _bordered_dense(K, G, f)
    assert np.abs(u_dense - u_star).max() <= 1e-10 * np.abs(u_star).max()
    u, p, res, steps = saddle_solve(sp.csr_matrix(K), G, f, shifted_factor(K, B, Y, sigma))
    for x, x_star in ((u, u_star), (p, p_star), (u, u_dense), (p, p_dense)):
        assert np.abs(x - x_star).max() <= 1e-10 * np.abs(x_star).max()
    assert res <= 1e-12
    assert 1 <= steps <= _REFINE_STEPS


def test_saddle_solve_rank_deficient_raises():
    """A kernel vector of K outside range(Y) leaves the bordered system singular."""
    K, B, Y, sigma = _kernel_pencil(14, 3, seed=23, extra_kernel=1)
    f = np.random.default_rng(24).standard_normal(14)
    with pytest.raises(SingularSystemError):
        saddle_solve(K, B @ Y, f, shifted_factor(K, B, Y, sigma))


def test_saddle_solve_residual_gate_rejects_foreign_constraint():
    """G other than B Y: refinement still converges, the bordered residual does not."""
    K, B, Y, sigma = _kernel_pencil(14, 3, seed=25)
    rng = np.random.default_rng(26)
    W = rng.standard_normal((14, 3))
    G = B @ Y + W - Y @ np.linalg.solve(Y.T @ Y, Y.T @ W)  # Y^T G = Y^T B Y
    f = rng.standard_normal(14)
    with pytest.raises(SingularSystemError, match="residual"):
        saddle_solve(K, G, f, shifted_factor(K, B, Y, sigma))


def test_saddle_solve_shift_lies_below_the_spectrum():
    """K - sigma B is factored with the sigma < 0 given to shifted_factor.

    The diagonal pencil has the eigenvalue |sigma| on a mode the load does not
    touch, so K - |sigma| B would be exactly singular; K + |sigma| B is not.
    """
    sigma = -1e-3
    K = sp.diags([0.0, -sigma, 2.0, 3.0])
    B = sp.identity(4, format="csr")
    Y = np.eye(4)[:, :1]
    f = np.array([5.0, 0.0, 4.0, 6.0])
    u, p, _, _ = saddle_solve(K, B @ Y, f, shifted_factor(K, B, Y, sigma))
    assert np.abs(u - np.array([0.0, 0.0, 2.0, 2.0])).max() < 1e-14
    assert np.abs(p - 5.0).max() < 1e-14
    with pytest.raises(SingularSystemError, match="shift"):
        shifted_factor(K, B, Y, -sigma)


def test_saddle_solve_gram_and_factor_failures_raise():
    K, B, Y, sigma = _kernel_pencil(8, 2, seed=27)
    with pytest.raises(SingularSystemError, match="Gram"):
        shifted_factor(K, B, np.hstack([Y[:, :1], Y[:, :1]]), sigma)
    with pytest.raises(SingularSystemError, match="singular"):
        shifted_factor(np.zeros((8, 8)), np.zeros((8, 8)), Y, sigma)
    factor = shifted_factor(K, B, Y, sigma)
    with pytest.raises(SingularSystemError, match="shapes"):
        saddle_solve(K, B @ Y, np.ones(7), factor)


def _eig(A, B, count, sigma, deflate=None):
    """gen_sym_eig on a fresh factor; no deflation without ``deflate``."""
    Y = np.zeros((A.shape[0], 0)) if deflate is None else deflate
    return gen_sym_eig(shifted_factor(A, B, Y, sigma), count)


def test_gen_sym_eig_diagonal_oracle():
    a = np.array([4.0, 1.0, 9.0, 16.0, 2.0])
    b = np.array([2.0, 1.0, 3.0, 4.0, 1.0])
    res = _eig(sp.diags(a), sp.diags(b), 4, -1.0)
    expected = np.sort(a / b)[:4]
    assert np.abs(res.values - expected).max() < 1e-12
    assert np.all(np.diff(res.values) >= 0)
    assert res.residuals.max() < 1e-10
    assert res.n_zero == 0
    BX = np.diag(b) @ res.vectors
    gram = res.vectors.T @ BX
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def _tridiagonal_pencil(n):
    off = -np.ones(n - 1)
    A = sp.diags([off, 2.0 * np.ones(n), off], [-1, 0, 1], format="csr")
    B = sp.diags([np.linspace(1.0, 2.0, n)], [0], format="csr")
    return A, B


def test_gen_sym_eig_matches_dense_eigh():
    A, B = _tridiagonal_pencil(80)
    dense = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True)[:4]
    res = _eig(A, B, 4, -0.01)
    assert np.abs(res.values - dense).max() < 1e-10 * dense[0]
    assert res.residuals.max() < 1e-10


def test_gen_sym_eig_nullspace_deflation():
    """Deflating scipy's null_space of A leaves exactly the positive spectrum."""
    rng = np.random.default_rng(11)
    L = rng.standard_normal((58, 60))
    A = L.T @ L
    Y = scipy.linalg.null_space(L)
    assert Y.shape == (60, 2)
    dense = scipy.linalg.eigh(A, eigvals_only=True)
    assert np.abs(dense[:2]).max() < 1e-8 * dense[2]
    res = _eig(A, np.eye(60), 3, -1.0, deflate=Y)
    assert res.n_zero == 2
    assert np.abs(res.values - dense[2:5]).max() < 1e-10 * dense[2]
    assert res.div_residuals.max() < 1e-12  # vectors are orthogonal to null(A)
    # Without deflation the zero modes are not positive eigenvalues: refused.
    with pytest.raises(EigenSolveError):
        _eig(A, np.eye(60), 3, -1.0)


def test_gen_sym_eig_input_validation():
    A = np.eye(4)
    with pytest.raises(SingularSystemError):
        _eig(A, np.eye(3), 1, -1.0)
    with pytest.raises(EigenSolveError):
        _eig(A, A, 0, -1.0)
    with pytest.raises(EigenSolveError):
        _eig(A, A, 5, -1.0)
    with pytest.raises(SingularSystemError):
        _eig(A, A, 2, 0.5)  # the shift must lie below the spectrum
    with pytest.raises(SingularSystemError):
        _eig(A, A, 1, -1.0, deflate=np.ones((3, 1)))
    with pytest.raises(EigenSolveError):
        _eig(A, np.diag([1.0, 1.0, 1.0, -1.0]), 2, -0.5)
    with pytest.raises(EigenSolveError, match="integer"):
        _eig(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5), 2.5, -1.0)
    res = _eig(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5), np.int64(2), -1.0)
    assert np.abs(res.values - np.array([1.0, 2.0])).max() < 1e-12


def test_gen_sym_eig_rejects_dependent_deflation_basis():
    """A singular or indefinite Y^T B Y would make n_zero differ from P."""
    A, B = _tridiagonal_pencil(20)
    y = np.linspace(0.0, 1.0, 20)[:, None]
    with pytest.raises(SingularSystemError, match="Gram"):
        _eig(A, B, 2, -0.01, deflate=np.hstack([y, 2.0 * y]))
    with pytest.raises(SingularSystemError, match="Gram"):
        _eig(A, -B, 2, -0.01, deflate=y)


def test_gen_sym_eig_residual_gate(monkeypatch):
    """The residual contract raises instead of handing back loose pairs."""
    A, B = _tridiagonal_pencil(80)
    _eig(A, B, 3, -0.01)
    monkeypatch.setattr(solvers, "_EIG_RESIDUAL_TOL", 1e-20)
    with pytest.raises(EigenSolveError, match="residual"):
        _eig(A, B, 3, -0.01)


def test_gen_sym_eig_full_spectrum():
    """count equal to the operator's rank: Rayleigh-Ritz on its whole range."""
    A = np.diag([3.0, 1.0, 2.0])
    res = _eig(A, np.eye(3), 3, -1.0)
    assert np.abs(res.values - np.array([1.0, 2.0, 3.0])).max() < 1e-12
    # Semidefinite B: only its two nonzero rows carry eigenvalues.
    # Eliminating x3 = x1 leaves diag(4, 2).
    A = sp.csr_matrix(np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, -1.0]]))
    B = sp.diags([1.0, 1.0, 0.0], format="csr")
    res = _eig(A, B, 2, -1.0)
    assert np.abs(res.values - np.array([2.0, 4.0])).max() < 1e-12
