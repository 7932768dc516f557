"""The model problems, each assembled once into one record and solved by one route.

A record holds the blocks of one model problem on one mesh and gives them as
one operator (A, B, Y): a symmetric pencil and its gradient block Y, which
spans the kernel of A.  ``eigenpairs`` and ``solve_source`` take any record,
so a record built once serves every eigen and source solve on its mesh.

* ``CurlCurlSystem``, the curl-curl (Maxwell) problem on U_{0,h}:
  A = C0, B = M0, Y = G0, the gradients of the free nodal space S_h.
* ``PencilSystem``, the fourth-order (quad-curl) problem, assembled WITHOUT
  divergence multipliers: with K(i,j) = (curl phi_j^0, curl phi_i)
  rectangular between the constrained and unconstrained edge spaces, the
  pencil

      [ 0   K^T ] [u]          [ M_N  0 ] [u]
      [ K  -M_M ] [w]  = lambda [ 0    0 ] [w]

  has the same nonzero eigenvalues as the Schur form S = K^T M_M^{-1} K
  against M_N, and Y = [G0; 0].  Nonzero modes are automatically discretely
  divergence-free, so gradient modes land exactly at zero; their
  multiplicity is dim(free S_h) = P.

The eigen route projects range(Y) out of every shift-invert iterate, so the
gradient modes are never computed and no zero threshold is applied.  The
source route solves [[A, B Y], [(B Y)^T, 0]] (x, p) = ((F, 0), 0): the
multiplier p in S_h keeps u discretely divergence-free through exactly the
gradient block the eigensolver deflates.  For quad-curl x = (u, phi), with
(phi, v) - (curl v, curl u) = 0 for all v and (curl phi, curl w) = (f, w)
for all w.  phi needs no multiplier: it equals M_M^{-1} K u, and
(grad s, phi) = (curl grad s, curl u) = 0 for every nodal s, so phi is
discretely divergence-free by itself.  ``saddle_solve`` factors no bordered
matrix: p solves (Y^T B Y) p = Y^T F, and the primal field comes from
projected iterative refinement on the factor of A - rho B, rho a fixed
fraction of the eigen shift.  A record keeps each route's factor.

``solve_curlcurl_source`` and ``solve_quadcurl_source`` take a load callable
and return the fields; comparing them with an exact solution is the study's
job (``harness``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import (
    SparseMatrix,
    _gram,
    _restrict,
    assemble_curlcurl,
    assemble_gradient_map,
    assemble_load,
    assemble_mass,
)
from .errors import NotSPDError, SpaceError
from .fespace import DofVector, FESpace, make_space
from .mesh import Mesh
from .solvers import EigenResult, ShiftedFactor, gen_sym_eig, saddle_solve, shifted_factor


@dataclass(eq=False)
class Spaces:
    """Edge/nodal space triple shared by the solvers on one mesh."""

    u0: FESpace  # constrained edge space U_{0,h}
    uf: FESpace  # unconstrained edge space U_h
    s0: FESpace  # constrained nodal space S_h


def setup_spaces(mesh: Mesh, order: int) -> Spaces:
    return Spaces(
        u0=make_space(mesh, "edge", order, constrained=True),
        uf=make_space(mesh, "edge", order, constrained=False),
        s0=make_space(mesh, "nodal", order, constrained=True),
    )


def _interior_spaces(mesh: Mesh, order: int) -> Spaces:
    s = setup_spaces(mesh, order)
    if s.u0.num_free == 0:
        raise SpaceError("mesh has no interior edge DoFs; the system is empty")
    return s


# The source route factors A - rho B, rho = _SHIFT_FRACTION * sigma: a
# refinement step contracts the error by about |rho| / lambda_1, so 4-5 steps
# reach roundoff on the cube meshes (1e-2 took 7-9; 1e-11 stalled at order 2).
# The eigen route keeps sigma: the nearer 0 its shift, the looser its vectors.
_SHIFT_FRACTION = 1e-3


class _Record:
    """Each route's factor, made on that route's first solve and kept."""

    @cached_property
    def eigen_factor(self) -> ShiftedFactor:
        return shifted_factor(*self.operator(), _shift(self))

    @cached_property
    def source_factor(self) -> ShiftedFactor:
        return shifted_factor(*self.operator(), _SHIFT_FRACTION * _shift(self))


@dataclass(eq=False)
class CurlCurlSystem(_Record):
    """Blocks of the curl-curl (Maxwell) operator on U_{0,h}, on active DoF sets."""

    C0: SparseMatrix  # (N x N): (curl phi_j^0, curl phi_i^0)
    M0: SparseMatrix  # U_{0,h} mass
    G0: SparseMatrix  # free-nodal -> free-edge gradient map (N x P)
    spaces: Spaces
    shift_power: ClassVar[int] = 2  # lambda_1 ~ |Omega|^(-2/3)
    m_total: ClassVar[int] = 0  # no w block

    @property
    def n_free(self) -> int:
        return self.C0.shape[0]

    def operator(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """(A, B, Y) = (C0, M0, G0)."""
        return self.C0.mat, self.M0.mat, self.G0.mat


def build_curlcurl_system(mesh: Mesh, order: int) -> CurlCurlSystem:
    """Assemble C0, M0 and the gradient map G0 on their active DoF sets.

    C0 and M0 both scatter onto ``u0.coupling``, so the edge pairs are sorted once.
    """
    s = _interior_spaces(mesh, order)
    return CurlCurlSystem(
        C0=assemble_curlcurl(s.u0, s.u0),
        M0=assemble_mass(s.u0),
        G0=assemble_gradient_map(s.s0, s.u0),
        spaces=s,
    )


@dataclass(eq=False)
class PencilSystem(_Record):
    """Blocks of the fourth-order eigenvalue pencil, on active DoF sets."""

    K: SparseMatrix  # (M x N): (curl phi_j^0, curl phi_i), columns on free DoFs
    M_N: SparseMatrix  # U_{0,h} mass
    M_M: SparseMatrix  # U_h mass
    G0: SparseMatrix  # free-nodal -> free-edge gradient map (N x P)
    spaces: Spaces
    shift_power: ClassVar[int] = 4  # lambda_1 ~ |Omega|^(-4/3)

    @property
    def n_free(self) -> int:
        return self.K.shape[1]

    @property
    def m_total(self) -> int:
        return self.K.shape[0]

    @property
    def p_free(self) -> int:
        return self.G0.shape[1]

    def operator(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """The (N+M) block pencil (A, B) and its gradient block Y = [G0; 0].

        The upper rows of A are K^T, a compressed transpose; the lower rows
        are [K, -M_M], one compressed row stack.  A is their data and indices
        one after the other; B and Y pad the indptr of M_N and G0.
        """
        N, M = self.n_free, self.m_total
        KT = self.K.mat.T.tocsr()
        lower = sp.hstack([self.K.mat, -self.M_M.mat], format="csr")
        A = sp.csr_matrix((np.concatenate([KT.data, lower.data]),
                           np.concatenate([KT.indices + N, lower.indices]),
                           np.concatenate([KT.indptr, KT.nnz + lower.indptr[1:]])),
                          shape=(N + M, N + M))
        return A, _pad_rows(self.M_N.mat, (N + M, N + M)), _pad_rows(self.G0.mat, (N + M, self.p_free))

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


def _pad_rows(mat: sp.csr_matrix, shape: tuple[int, int]) -> sp.csr_matrix:
    """A copy of ``mat`` as the leading rows and columns of a matrix of ``shape``."""
    indptr = np.concatenate([mat.indptr, np.full(shape[0] - mat.shape[0], mat.nnz, mat.indptr.dtype)])
    return sp.csr_matrix((mat.data.copy(), mat.indices.copy(), indptr), shape=shape)


def build_quadcurl_pencil(mesh: Mesh, order: int) -> PencilSystem:
    """Assemble K, M_N, M_M and the gradient map G0 on their active DoF sets.

    K and M_M both scatter onto ``uf.coupling``, so the edge pairs are sorted
    once.  M_M is the mass on the full layout of U_h, so M_N, the U_{0,h}
    mass, is its free rows and columns.
    """
    s = _interior_spaces(mesh, order)
    M_M = assemble_mass(s.uf)
    return PencilSystem(
        K=assemble_curlcurl(s.uf, s.u0),
        M_N=_restrict(s.u0, s.u0, M_M.mat.indptr, M_M.mat.indices, M_M.mat.data),
        M_M=M_M,
        G0=assemble_gradient_map(s.s0, s.u0),
        spaces=s,
    )


def _shift(system: CurlCurlSystem | PencilSystem) -> float:
    """Lanczos shift below the spectrum, scaled with the record's own domain.

    The first eigenvalue of curl^(power/2) on a domain of volume |Omega|
    scales like (2 pi)^power |Omega|^(-power/3); sigma is minus half of that.
    A fixed shift would let the residuals grow with the eigenvalue's scale.
    """
    power = system.shift_power
    volume = float(system.spaces.u0.mesh.volumes().sum())
    return -0.5 * (2.0 * np.pi) ** power * volume ** (-power / 3.0)


def eigenpairs(system: CurlCurlSystem | PencilSystem, count: int) -> EigenResult:
    """First `count` nonzero eigenpairs of a record's operator, ascending.

    The pencil (A, B) is solved with its gradient block Y deflated; the
    returned vectors are the u block (length N), orthonormal in the U_{0,h}
    mass.
    """
    res = gen_sym_eig(system.eigen_factor, count)
    return replace(res, vectors=res.vectors[: system.n_free])


def solve_quadcurl_eig(mesh: Mesh, order: int, count: int) -> EigenResult:
    """First `count` nonzero eigenvalues of the fourth-order pencil, ascending."""
    return eigenpairs(build_quadcurl_pencil(mesh, order), count)


def solve_maxwell_eig(mesh: Mesh, order: int, count: int) -> EigenResult:
    """First `count` nonzero curl-curl (Maxwell) eigenvalues on U_{0,h}."""
    return eigenpairs(build_curlcurl_system(mesh, order), count)


@dataclass(eq=False)
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


def solve_source(system: CurlCurlSystem | PencilSystem, load: np.ndarray) -> SourceSolution:
    """Source problem of a record for a load vector F on the free U_{0,h} DoFs.

    Solves [[A, B Y], [(B Y)^T, 0]] (x, p) = ((F, 0), 0) with the record's
    operator: x is u, followed by phi when there is a w block.  Raises
    SpaceError when F does not have length N.
    """
    s = system.spaces
    N = system.n_free
    F = np.asarray(load, dtype=np.float64)
    if F.shape != (N,):
        raise SpaceError(f"load vector must have length {N}")
    factor = system.source_factor
    rhs = np.concatenate([F, np.zeros(system.m_total)])
    x, pvals, res, steps = saddle_solve(factor.A, factor.BYt.T, rhs, factor)
    p = s.s0.embed(pvals)
    # ||p_h||^2 = sum_t |det J_t| p_t^T R p_t over the local mass blocks: no
    # S_h mass, and no pattern for it, is assembled for one number.
    p_t = p.values[s.s0.cell_dofs]
    norm_p = np.sqrt(float(np.einsum("ti,tij,tj->", p_t, _gram(s.s0, 0, 2 * s.s0.order), p_t)))
    norm_u = np.sqrt(float(x[:N] @ (factor.B @ x)[:N]))
    return SourceSolution(
        u=s.u0.embed(x[:N]),
        phi=DofVector(s.uf, x[N:]) if system.m_total else None,
        p=p,
        residual=res,
        p_ratio=norm_p / max(norm_u, 1e-300) if norm_p > 0 else 0.0,
        refine_steps=steps,
    )


def _solve_load(system: CurlCurlSystem | PencilSystem, f) -> SourceSolution:
    """solve_source on the load vector of the callable f."""
    s = system.spaces
    return solve_source(system, assemble_load(s.uf, f).values[s.u0.free_dofs])


def solve_curlcurl_source(mesh: Mesh, order: int, f) -> SourceSolution:
    """Second-order curl-curl source problem with a scalar multiplier; f is the load."""
    return _solve_load(build_curlcurl_system(mesh, order), f)


def solve_quadcurl_source(mesh: Mesh, order: int, f) -> SourceSolution:
    """Fourth-order source problem (u, phi, p) on the eigen pencil's blocks; f is the load."""
    return _solve_load(build_quadcurl_pencil(mesh, order), f)
