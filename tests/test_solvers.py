import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from quadcurl import SparseMatrix, gen_sym_eig, saddle_solve, spd_solve
from quadcurl.errors import EigenSolveError, NotSPDError, SingularSystemError


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    return R @ R.T + n * np.eye(n)


def test_spd_solve_dense_single_and_multi_rhs():
    A = _random_spd(8, 0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    assert np.abs(spd_solve(A, A @ x) - x).max() < 1e-10
    X = rng.standard_normal((8, 3))
    assert np.abs(spd_solve(A, A @ X) - X).max() < 1e-10


def test_spd_solve_sparse_path():
    n = 600
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n)
    b = A @ x
    got = spd_solve(SparseMatrix(A.tocsr(), symmetric=True), b)
    assert np.abs(got - x).max() < 1e-8


def test_spd_solve_rejects_indefinite_dense():
    A = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotSPDError):
        spd_solve(A, np.ones(3))


def test_spd_solve_rejects_negative_pivot_sparse():
    A = -sp.identity(600, format="csr")
    with pytest.raises(NotSPDError):
        spd_solve(A, np.ones(600))


def test_spd_solve_singular_sparse():
    d = np.ones(600)
    d[300] = 0.0
    A = sp.diags([d], [0], format="csr")
    with pytest.raises((SingularSystemError, NotSPDError)):
        spd_solve(A, np.ones(600))


def test_saddle_solve_manufactured_solution():
    K = _random_spd(6, 3)
    rng = np.random.default_rng(4)
    G = rng.standard_normal((6, 2))
    u_star = rng.standard_normal(6)
    p_star = rng.standard_normal(2)
    f = K @ u_star + G @ p_star
    g = G.T @ u_star
    u, p, res = saddle_solve(K, G, f, g)
    assert np.abs(u - u_star).max() < 1e-10
    assert np.abs(p - p_star).max() < 1e-10
    assert res < 1e-9


def test_saddle_solve_default_zero_constraint():
    K = _random_spd(5, 7)
    G = np.random.default_rng(8).standard_normal((5, 1))
    f = np.ones(5)
    u, p, _ = saddle_solve(K, G, f)
    assert abs(G.T @ u).max() < 1e-10


def test_saddle_solve_rank_deficient_raises():
    K = _random_spd(5, 9)
    G = np.zeros((5, 2))
    with pytest.raises(SingularSystemError):
        saddle_solve(K, G, np.ones(5))


def test_gen_sym_eig_diagonal_oracle():
    a = np.array([4.0, 1.0, 9.0, 16.0, 2.0])
    b = np.array([2.0, 1.0, 3.0, 4.0, 1.0])
    res = gen_sym_eig(sp.diags(a), sp.diags(b), 4, sigma=-1.0)
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
    res = gen_sym_eig(A, B, 4, sigma=-0.01)
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
    res = gen_sym_eig(A, np.eye(60), 3, sigma=-1.0, deflate=Y)
    assert res.n_zero == 2
    assert np.abs(res.values - dense[2:5]).max() < 1e-10 * dense[2]
    assert res.div_residuals.max() < 1e-12  # vectors are orthogonal to null(A)
    # Without deflation the zero modes are not positive eigenvalues: refused.
    with pytest.raises(EigenSolveError):
        gen_sym_eig(A, np.eye(60), 3, sigma=-1.0)


def test_gen_sym_eig_input_validation():
    A = np.eye(4)
    with pytest.raises(EigenSolveError):
        gen_sym_eig(A, np.eye(3), 1, sigma=-1.0)
    with pytest.raises(EigenSolveError):
        gen_sym_eig(A, A, 0, sigma=-1.0)
    with pytest.raises(EigenSolveError):
        gen_sym_eig(A, A, 5, sigma=-1.0)
    with pytest.raises(EigenSolveError):
        gen_sym_eig(A, A, 2, sigma=0.5)  # the shift must lie below the spectrum
    with pytest.raises(EigenSolveError):
        gen_sym_eig(A, A, 1, sigma=-1.0, deflate=np.ones((3, 1)))
    with pytest.raises(EigenSolveError):
        gen_sym_eig(A, np.diag([1.0, 1.0, 1.0, -1.0]), 2, sigma=-0.5)


def test_gen_sym_eig_rejects_dependent_deflation_basis():
    """A singular or indefinite Y^T B Y would make n_zero differ from P."""
    A, B = _tridiagonal_pencil(20)
    y = np.linspace(0.0, 1.0, 20)[:, None]
    with pytest.raises(EigenSolveError, match="Gram"):
        gen_sym_eig(A, B, 2, sigma=-0.01, deflate=np.hstack([y, 2.0 * y]))
    with pytest.raises(EigenSolveError, match="Gram"):
        gen_sym_eig(A, -B, 2, sigma=-0.01, deflate=y)


def test_gen_sym_eig_residual_gate():
    """The residual contract raises instead of handing back loose pairs."""
    A, B = _tridiagonal_pencil(80)
    gen_sym_eig(A, B, 3, sigma=-0.01, tol=1e-8)
    with pytest.raises(EigenSolveError, match="residual"):
        gen_sym_eig(A, B, 3, sigma=-0.01, tol=1e-20)


def test_gen_sym_eig_full_spectrum():
    """count equal to the operator's rank: Rayleigh-Ritz on its whole range."""
    A = np.diag([3.0, 1.0, 2.0])
    res = gen_sym_eig(A, np.eye(3), 3, sigma=-1.0)
    assert np.abs(res.values - np.array([1.0, 2.0, 3.0])).max() < 1e-12
    # Semidefinite B: only its two nonzero rows carry eigenvalues.
    # Eliminating x3 = x1 leaves diag(4, 2).
    A = sp.csr_matrix(np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, -1.0]]))
    B = sp.diags([1.0, 1.0, 0.0], format="csr")
    res = gen_sym_eig(A, B, 2, sigma=-1.0)
    assert np.abs(res.values - np.array([2.0, 4.0])).max() < 1e-12
