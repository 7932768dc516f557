"""The three model problems, assembled from the mesh/space/solver kernels.

* curl-curl source problem on U_{0,h} x S_h (a saddle system whose scalar
  multiplier vanishes for divergence-free loads),
* fourth-order (quad-curl) source problem: find u in U_{0,h} and the
  auxiliary field phi in U_h with (phi, v) - (curl v, curl u) = 0 for all v
  and (curl phi, curl w) = (f, w) for all w.  It is the eigen pencil's
  operator below, with u pinned to the discretely divergence-free subspace
  by one scalar multiplier p in S_h through exactly the gradient block the
  eigensolver deflates.  phi needs no multiplier: it equals M_M^{-1} K u,
  and (grad s, phi) = (curl grad s, curl u) = 0 for every nodal s, so phi
  is discretely divergence-free by itself,
* the fourth-order eigenvalue problem, assembled WITHOUT divergence
  multipliers: with K(i,j) = (curl phi_j^0, curl phi_i) rectangular between
  the constrained and unconstrained edge spaces, the pencil

      [ 0   K^T ] [u]          [ M_N  0 ] [u]
      [ K  -M_M ] [w]  = lambda [ 0    0 ] [w]

  has the same nonzero eigenvalues as the Schur form S = K^T M_M^{-1} K
  against M_N.  Nonzero modes are automatically discretely divergence-free,
  so gradient modes land exactly at zero; their multiplicity is
  dim(free S_h) = P.  The eigensolver projects the gradient space [G0; 0]
  out of every shift-invert iterate, so those modes are never computed and
  no zero threshold is applied.

Both source saddles read [[A, B Y], [(B Y)^T, 0]] with A Y = 0: A = C0,
B = M0, Y = G0 for curl-curl, and the eigen pencil's (A, B) with
Y = [G0; 0] for quad-curl.  So ``saddle_solve`` factors no bordered matrix:
p solves (Y^T B Y) p = Y^T F, and the primal field comes from projected
iterative refinement on the factor of A - rho B, rho a fixed fraction of the
shift the eigensolver uses on the same pencil.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import (
    SparseMatrix,
    assemble_curlcurl,
    assemble_gradient_map,
    assemble_load,
    assemble_mass,
)
from .errors import NotSPDError, SpaceError
from .fespace import DofVector, FESpace, integrate_errors, make_space
from .manufactured import ManufacturedCase
from .mesh import Mesh, build_topology
from .solvers import EigenResult, gen_sym_eig, saddle_solve


@dataclass
class Spaces:
    """Edge/nodal space triple shared by the solvers on one mesh."""

    u0: FESpace  # constrained edge space U_{0,h}
    uf: FESpace  # unconstrained edge space U_h
    s0: FESpace  # constrained nodal space S_h


def setup_spaces(mesh: Mesh, order: int) -> Spaces:
    topo = build_topology(mesh)
    return Spaces(
        u0=make_space(mesh, "edge", order, constrained=True, topo=topo),
        uf=make_space(mesh, "edge", order, constrained=False, topo=topo),
        s0=make_space(mesh, "nodal", order, constrained=True, topo=topo),
    )


@dataclass
class PencilSystem:
    """Blocks of the fourth-order eigenvalue pencil, on active DoF sets."""

    K: SparseMatrix  # (M x N): (curl phi_j^0, curl phi_i), columns on free DoFs
    M_N: SparseMatrix  # U_{0,h} mass
    M_M: SparseMatrix  # U_h mass
    G0: SparseMatrix  # free-nodal -> free-edge gradient map (N x P)
    spaces: Spaces

    @property
    def n_free(self) -> int:
        return self.K.shape[1]

    @property
    def m_total(self) -> int:
        return self.K.shape[0]

    @property
    def p_free(self) -> int:
        return self.G0.shape[1]

    def block_pencil(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Full (N+M) symmetric block pencil (A, B) that the eigensolver factors."""
        A = sp.bmat([[None, self.K.mat.T], [self.K.mat, -self.M_M.mat]], format="csr")
        B = sp.block_diag([self.M_N.mat, sp.csr_matrix((self.m_total,) * 2)], format="csr")
        return A, B

    def gradient_block(self) -> sp.csr_matrix:
        """Gradient block Y = [G0; 0] of the (N+M) pencil, the kernel of A."""
        return sp.vstack([self.G0.mat, sp.csr_matrix((self.m_total, self.p_free))], format="csr")

    def schur_dense(self) -> np.ndarray:
        """S = K^T M_M^{-1} K as a dense symmetric PSD matrix (a test oracle).

        Formed as W^T W with W = L^{-1} K from the Cholesky factor of M_M,
        which keeps S symmetric PSD by construction.
        """
        Md = self.M_M.to_dense()
        try:
            L = sla.cholesky(Md, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotSPDError(f"edge mass matrix not SPD: {exc}") from exc
        W = sla.solve_triangular(L, self.K.to_dense(), lower=True)
        S = W.T @ W
        return 0.5 * (S + S.T)


def build_quadcurl_pencil(mesh: Mesh, order: int) -> PencilSystem:
    """Assemble K, M_N, M_M and the gradient block on their active DoF sets."""
    s = setup_spaces(mesh, order)
    if s.u0.num_free == 0:
        raise SpaceError("mesh has no interior edge DoFs; pencil is empty")
    return PencilSystem(
        K=assemble_curlcurl(s.uf, s.u0),
        M_N=assemble_mass(s.u0),
        M_M=assemble_mass(s.uf),
        G0=assemble_gradient_map(s.s0, s.u0),
        spaces=s,
    )


def _shift(mesh: Mesh, power: int) -> float:
    """Lanczos shift below the spectrum, scaled with the domain.

    The first eigenvalue of curl^(power/2) on a domain of volume |Omega|
    scales like (2 pi)^power |Omega|^(-power/3); sigma is minus half of that.
    A fixed shift would let the residuals grow with the eigenvalue's scale.
    """
    return -0.5 * (2.0 * np.pi) ** power * float(mesh.volumes().sum()) ** (-power / 3.0)


def solve_quadcurl_eig(
    mesh: Mesh,
    order: int,
    count: int,
    pencil: PencilSystem | None = None,
) -> EigenResult:
    """First `count` nonzero eigenvalues of the fourth-order pencil, ascending.

    The block pencil is solved with the gradients [G0; 0] deflated; the
    returned vectors are the u block (length N), M_N-orthonormal.
    """
    pen = pencil if pencil is not None else build_quadcurl_pencil(mesh, order)
    A, B = pen.block_pencil()
    res = gen_sym_eig(A, B, count, _shift(mesh, 4), deflate=pen.gradient_block())
    return replace(res, vectors=res.vectors[: pen.n_free])


def solve_maxwell_eig(mesh: Mesh, order: int, count: int) -> EigenResult:
    """First `count` nonzero curl-curl (Maxwell) eigenvalues on U_{0,h}."""
    return _maxwell_eig(mesh, *_curlcurl_blocks(setup_spaces(mesh, order)), count)


def _curlcurl_blocks(s: Spaces) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """Curl-curl C0 and mass M0 on U_{0,h}, and the gradient map G0 from S_h."""
    if s.u0.num_free == 0:
        raise SpaceError("mesh has no interior edge DoFs")
    return assemble_curlcurl(s.u0, s.u0), assemble_mass(s.u0), assemble_gradient_map(s.s0, s.u0)


def _maxwell_eig(mesh: Mesh, C0, M0, G0, count: int) -> EigenResult:
    """Maxwell eigenpairs of the pencil (C0, M0) with the gradients G0 deflated."""
    return gen_sym_eig(C0.mat, M0.mat, count, _shift(mesh, 2), deflate=G0.mat)


@dataclass
class SourceSolution:
    """Solution bundle of a source problem.

    ``u`` is the primary field; ``phi`` the auxiliary field of the
    fourth-order problem (None for curl-curl); ``p`` the scalar multiplier
    that keeps u discretely divergence-free.  ``p_ratio`` is ||p_h|| / ||u_h||
    in L2, the numerical version of the multiplier-vanishes statement for
    divergence-free loads.  ``residual`` is the relative residual of the
    saddle system and ``refine_steps`` the iterative-refinement steps
    ``saddle_solve`` took.
    """

    u: DofVector
    phi: DofVector | None
    p: DofVector | None
    residual: float
    p_ratio: float
    refine_steps: int
    errors: dict | None = None


def _p_ratio(s: Spaces, M_u: SparseMatrix, u: np.ndarray, p: np.ndarray) -> float:
    """||p_h|| / ||u_h|| in L2, with u's mass matrix M_u (0 when p_h = 0)."""
    norm_p = np.sqrt(float(p @ (assemble_mass(s.s0).mat @ p)))
    return norm_p / max(np.sqrt(float(u @ (M_u.mat @ u))), 1e-300) if norm_p > 0 else 0.0


def solve_curlcurl_source(mesh: Mesh, order: int, f) -> SourceSolution:
    """Second-order curl-curl source problem with a scalar multiplier.

    f may be a callable (the load) or a ManufacturedCase; with a case, L2 and
    H(curl) errors against the analytic solution are reported.
    """
    case = f if isinstance(f, ManufacturedCase) else None
    fn = case.f if case is not None else f
    s = setup_spaces(mesh, order)
    C0, M0, G0 = _curlcurl_blocks(s)
    F = assemble_load(s.uf, fn).values[s.u0.free_dofs]
    uvals, pvals, res, steps = saddle_solve(
        C0.mat, M0.mat @ G0.mat, F, M0.mat, G0.mat, _shift(mesh, 2))
    u = s.u0.embed(uvals)
    p = s.s0.embed(pvals)
    ratio = _p_ratio(s, M0, uvals, pvals)
    errors = None
    if case is not None:
        e_l2, e_curl = integrate_errors(s.u0, u, case.u, case.curl_u)
        errors = {
            "l2": e_l2,
            "curl": e_curl,
            "hcurl": float(np.hypot(e_l2, e_curl)),
        }
    return SourceSolution(u=u, phi=None, p=p, residual=res, p_ratio=ratio,
                          refine_steps=steps, errors=errors)


def solve_quadcurl_source(
    mesh: Mesh,
    order: int,
    f=None,
    load: np.ndarray | None = None,
) -> SourceSolution:
    """Fourth-order source problem on the eigen pencil's blocks.

    Unknowns (u, phi, p): with the pencil (A, B) and its gradient block
    Y = [G0; 0], solves [[A, B Y], [(B Y)^T, 0]] (u, phi, p) = (F, 0, 0).
    The first block row tests with U_{0,h}, the second with U_h, and p
    keeps u discretely divergence-free, the same constraint the eigensolver
    deflates.  phi = M_M^{-1} K u needs no multiplier of its own: K^T maps
    every discrete gradient in U_h to zero (curl grad = 0), so phi is
    M_M-orthogonal to all of them for every u.  Exactly one of an analytic
    load f (callable or ManufacturedCase) and a pre-assembled load vector on
    the free edge DoFs must be given; SpaceError otherwise.
    """
    if (f is None) == (load is None):
        raise SpaceError("give exactly one of f and load")
    case = f if isinstance(f, ManufacturedCase) else None
    pen = build_quadcurl_pencil(mesh, order)
    s = pen.spaces
    N = pen.n_free

    if load is not None:
        F = np.asarray(load, dtype=np.float64)
        if F.shape != (N,):
            raise SpaceError(f"load vector must have length {N}")
    else:
        fn = case.f if case is not None else f
        F = assemble_load(s.uf, fn).values[s.u0.free_dofs]

    A, B = pen.block_pencil()
    Y = pen.gradient_block()
    rhs = np.concatenate([F, np.zeros(pen.m_total)])
    x, pvals, res, steps = saddle_solve(A, B @ Y, rhs, B, Y, _shift(mesh, 4))

    u = s.u0.embed(x[:N])
    phi = DofVector(s.uf, x[N:])
    p = s.s0.embed(pvals)
    ratio = _p_ratio(s, pen.M_N, x[:N], pvals)
    errors = None
    if case is not None:
        e_l2, e_curl = integrate_errors(s.u0, u, case.u, case.curl_u)
        e_phi, _ = integrate_errors(s.uf, phi, case.curl2_u, None)
        errors = {
            "l2_u": e_l2,
            "curl_u": e_curl,
            "phi": e_phi,
            "combined": e_curl + e_phi,
        }
    return SourceSolution(u=u, phi=phi, p=p, residual=res, p_ratio=ratio,
                          refine_steps=steps, errors=errors)
