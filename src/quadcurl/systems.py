"""The model problems, each assembled once into one record and solved by one route.

A record holds the blocks of one model problem on one mesh and gives them as
one operator (A, B, Y): a symmetric pencil and its gradient block Y, which
spans the kernel of A.  ``eigenpairs`` and ``solve_source`` take any record,
so a record built once serves every eigen and source solve on its mesh.

* ``CurlCurlSystem``, the curl-curl (Maxwell) problem on U_{0,h}:
  A = C0, B = M0, Y = G0, the gradients of the free nodal space S_h.
* ``PencilSystem``, the fourth-order (quad-curl) problem, assembled WITHOUT
  divergence multipliers: with K(i,j) = (curl phi_j^0, curl phi_i), the
  curl-curl matrix of the edge space with its columns on the free DoFs, the
  pencil

      [ 0   K^T ] [u]          [ M_N  0 ] [u]
      [ K  -M_M ] [w]  = lambda [ 0    0 ] [w]

  has the same nonzero eigenvalues as the Schur form S = K^T M_M^{-1} K
  against M_N, and Y = [G0; 0].  Nonzero modes are automatically discretely
  divergence-free, so gradient modes land exactly at zero; their
  multiplicity is dim(free S_h) = P.

Y spans the kernel of A only on a domain without cavities, where each domain
component has one boundary component, so building a record on any other
domain raises SpaceError.

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
projected iterative refinement on the factor of A - rho B.

A record keeps each route's factor, made at unit scale: the blocks are taken
as if the mesh were shrunk by ell = 4^k, the power of 4 nearest |Omega|^(1/3)
(K and C0 times ell, the masses over ell, Y as it is), so the blocks of the
factored matrices keep their relative sizes on a mesh in any units.  The
routes return their results in the record's units, and every rescaling is by
a power of two, so it is exact; ell = 1 whenever 1/8 <= |Omega| <= 8.  The
eigen route factors at a tenth of the unit-scale shift, the source route at
``_SHIFT_FRACTION`` of it.

``solve_curlcurl_source`` and ``solve_quadcurl_source`` take a load callable
and return the fields; comparing them with an exact solution is the study's
job (``harness``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .assembly import (
    SparseMatrix,
    _gram,
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
    """The edge and nodal spaces of one mesh, shared by a record's blocks.

    U_h is the edge space's full layout and U_{0,h} its free DoFs; S_h is the
    nodal space's free DoFs.
    """

    edge: FESpace
    nodal: FESpace


def setup_spaces(mesh: Mesh, order: int) -> Spaces:
    return Spaces(edge=make_space(mesh, "edge", order), nodal=make_space(mesh, "nodal", order))


# The source route factors A - rho B, rho = _SHIFT_FRACTION * _shift: a
# refinement step contracts the error by about |rho| / lambda_1, so 4-5 steps
# reach roundoff on the cube meshes (1e-2 took 7-9; 1e-11 stalled at order 2).
_SHIFT_FRACTION = 1e-3
# The eigen route factors at _EIGEN_SHIFT_FRACTION * _shift.  Lanczos converges
# with the transformed gap (lam_k+1 - lam_k) / (lam_k - sigma), so a shift
# nearer 0 takes fewer applications: 22 % fewer than at the full _shift over
# the benchmark's classes at counts 1-5.  The nearer 0 the shift, the looser
# the vectors: the Schur-form residual of u rises about 10x at this fraction.
_EIGEN_SHIFT_FRACTION = 0.1


class _Record:
    """Each route's factor, made at unit scale on that route's first solve and kept."""

    @cached_property
    def scale(self) -> float:
        """ell = 4^k with k = round(log_4 |Omega|^(1/3)): the routes' unit of length."""
        return 4.0 ** round(math.log2(_volume(self)) / 6.0)

    @cached_property
    def eigen_factor(self) -> ShiftedFactor:
        return shifted_factor(*self.operator(), _EIGEN_SHIFT_FRACTION * _shift(self))

    @cached_property
    def source_factor(self) -> ShiftedFactor:
        return shifted_factor(*self.operator(), _SHIFT_FRACTION * _shift(self))


def _scaled(mat: sp.csr_matrix, factor: float) -> sp.csr_matrix:
    """mat times a power of two, which is exact; mat itself, not a copy, at 1."""
    return mat if factor == 1.0 else mat * factor


@dataclass(eq=False)
class CurlCurlSystem(_Record):
    """Blocks of the curl-curl (Maxwell) operator on U_{0,h}, on free DoFs."""

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
        """(A, B, Y) = (C0, M0, G0) at unit scale, on the mesh shrunk by ``scale``."""
        scale = self.scale
        return _scaled(self.C0.mat, scale), _scaled(self.M0.mat, 1.0 / scale), self.G0.mat


def build_curlcurl_system(mesh: Mesh, order: int) -> CurlCurlSystem:
    """Assemble C0, M0 and the gradient map G0: the free rows and columns.

    The blocks are the pencil's: C0 is K's free rows, M0 is M_N and G0 is G0.
    """
    pen = _edge_blocks(mesh, order)
    return CurlCurlSystem(C0=SparseMatrix(pen.K.mat[pen.spaces.edge.free_dofs]),
                          M0=pen.M_N, G0=pen.G0, spaces=pen.spaces)


@dataclass(eq=False)
class PencilSystem(_Record):
    """Blocks of the fourth-order eigenvalue pencil: U_{0,h} on free DoFs, U_h in full."""

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
        """The (N+M) block pencil (A, B) and its gradient block Y = [G0; 0]
        at unit scale, on the mesh shrunk by ``scale``.

        The upper rows of A are K^T, a compressed transpose; the lower rows
        are [K, -M_M], one compressed row stack.  A is their data and indices
        one after the other; B and Y pad the indptr of M_N and G0.
        """
        N, M, scale = self.n_free, self.m_total, self.scale
        K = _scaled(self.K.mat, scale)
        KT = K.T.tocsr()
        lower = sp.hstack([K, self.M_M.mat * (-1.0 / scale)], format="csr")
        A = sp.csr_matrix((np.concatenate([KT.data, lower.data]),
                           np.concatenate([KT.indices + N, lower.indices]),
                           np.concatenate([KT.indptr, KT.nnz + lower.indptr[1:]])),
                          shape=(N + M, N + M))
        B = _pad_rows(_scaled(self.M_N.mat, 1.0 / scale), (N + M, N + M))
        return A, B, _pad_rows(self.G0.mat, (N + M, self.p_free))

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


def _cavities(mesh: Mesh) -> tuple[int, int, int]:
    """(H, boundary components, domain components), H = their difference.

    The boundary components are those of the graph of boundary edges, less
    the interior vertices, which it leaves isolated; the domain components
    are counted only when there are several boundary components.
    """
    t, V = mesh.topology, mesh.num_vertices

    def components(edges) -> int:
        # Edges are ranked lexicographically, so their first vertices give the CSR rows.
        indptr = np.searchsorted(edges[:, 0], np.arange(V + 1))
        graph = sp.csr_matrix((np.ones(len(edges)), edges[:, 1], indptr), shape=(V, V))
        return int(connected_components(graph, directed=False)[0])

    interior = V - int(np.count_nonzero(t.boundary_vertices))
    boundary = components(t.edges[t.boundary_edges]) - interior
    domain = components(t.edges) if boundary > 1 else 1
    return boundary - domain, boundary, domain


def _edge_blocks(mesh: Mesh, order: int) -> PencilSystem:
    """The spaces and the blocks K, M_N, M_M and G0, which both records share.

    Each operator is assembled once on the full layout, and the free rows
    and columns are scipy's CSR slices of it.  K and M_M both scatter onto
    ``edge.coupling``, so the edge pairs are sorted once.

    Raises SpaceError on a domain with cavities: with u x n = 0, the kernel
    of curl on U_{0,h} holds one discrete harmonic field per boundary
    component beyond the first of each domain component, H in all, and
    Y = [G0; 0] spans only grad S_h.
    """
    H, boundary, domain = _cavities(mesh)
    if H > 0:
        raise SpaceError(
            f"the boundary has {boundary} components on {domain} domain components, so H = {H}:"
            f" the gradient block misses H discrete harmonic fields (cavities are not supported)")
    s = setup_spaces(mesh, order)
    free = s.edge.free_dofs
    if len(free) == 0:
        raise SpaceError("mesh has no interior edge DoFs; the system is empty")
    M_M = assemble_mass(s.edge)
    return PencilSystem(
        K=SparseMatrix(assemble_curlcurl(s.edge).mat[:, free]),
        M_N=SparseMatrix(M_M.mat[free][:, free]),
        M_M=M_M,
        G0=SparseMatrix(assemble_gradient_map(s.nodal, s.edge).mat[free][:, s.nodal.free_dofs]),
        spaces=s,
    )


def build_quadcurl_pencil(mesh: Mesh, order: int) -> PencilSystem:
    """Assemble M_M in full, and K, M_N and the gradient map G0 on the free DoFs.

    K is the curl-curl matrix's free columns, and M_N, the U_{0,h} mass, is
    M_M's free rows and columns.
    """
    return _edge_blocks(mesh, order)


def _volume(system: CurlCurlSystem | PencilSystem) -> float:
    return float(system.spaces.edge.mesh.volumes().sum())


def _shift(system: CurlCurlSystem | PencilSystem) -> float:
    """Shift below the spectrum of the record at unit scale.

    The first eigenvalue of curl^(power/2) on a domain of volume V scales
    like (2 pi)^power V^(-power/3); this is minus half of that for the
    record's volume in units of its scale, V = |Omega| / ell^3.
    """
    power = system.shift_power
    volume = _volume(system) / system.scale**3
    return -0.5 * (2.0 * np.pi) ** power * volume ** (-power / 3.0)


def eigenpairs(system: CurlCurlSystem | PencilSystem, count: int) -> EigenResult:
    """First `count` nonzero eigenpairs of a record's operator, ascending.

    The pencil (A, B) is solved with its gradient block Y deflated; the
    returned vectors are the u block (length N), orthonormal in the U_{0,h}
    mass.  The unit-scale eigenvalues scale back by ell^-power, the vectors
    by ell^-1/2.
    """
    res = gen_sym_eig(system.eigen_factor, count)
    ell = system.scale
    return replace(res, values=res.values * ell ** -system.shift_power,
                   vectors=res.vectors[: system.n_free] * ell**-0.5)


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
    saddle system at unit scale and ``refine_steps`` the iterative-refinement
    steps ``saddle_solve`` took.
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
    operator: x is u, followed by phi when there is a w block.  The unit-scale
    solution with the same F scales back to u ell^(power-1), phi ell and
    p / ell.  Raises SpaceError when F does not have length N.
    """
    edge, nodal = system.spaces.edge, system.spaces.nodal
    N = system.n_free
    F = np.asarray(load, dtype=np.float64)
    if F.shape != (N,):
        raise SpaceError(f"load vector must have length {N}")
    factor = system.source_factor
    rhs = np.concatenate([F, np.zeros(system.m_total)])
    x, pvals, res, steps = saddle_solve(factor.A, factor.BYt.T, rhs, factor)
    ell = system.scale
    x[:N] *= ell ** (system.shift_power - 1)
    x[N:] *= ell
    p = nodal.embed(pvals / ell)
    # ||p_h||^2 = sum_t |det J_t| p_t^T R p_t over the local mass blocks: no
    # S_h mass, and no pattern for it, is assembled for one number.
    p_t = p.values[nodal.cell_dofs]
    norm_p = np.sqrt(float(np.einsum("ti,tij,tj->", p_t, _gram(nodal, 0), p_t)))
    norm_u = np.sqrt(ell * float(x[:N] @ (factor.B @ x)[:N]))  # B is M_N / ell
    return SourceSolution(
        u=edge.embed(x[:N]),
        phi=DofVector(edge, x[N:]) if system.m_total else None,
        p=p,
        residual=res,
        p_ratio=norm_p / max(norm_u, 1e-300) if norm_p > 0 else 0.0,
        refine_steps=steps,
    )


def _solve_load(system: CurlCurlSystem | PencilSystem, f) -> SourceSolution:
    """solve_source on the load vector of the callable f."""
    edge = system.spaces.edge
    return solve_source(system, assemble_load(edge, f).values[edge.free_dofs])


def solve_curlcurl_source(mesh: Mesh, order: int, f) -> SourceSolution:
    """Second-order curl-curl source problem with a scalar multiplier; f is the load."""
    return _solve_load(build_curlcurl_system(mesh, order), f)


def solve_quadcurl_source(mesh: Mesh, order: int, f) -> SourceSolution:
    """Fourth-order source problem (u, phi, p) on the eigen pencil's blocks; f is the load."""
    return _solve_load(build_quadcurl_pencil(mesh, order), f)
