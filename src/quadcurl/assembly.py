"""Global matrix and load vector assembly.

The maps from the reference tet are affine, so every element integral is a
small per-tet geometry tensor contracted with one reference tensor (the
"tensor representation" of Kirby & Logg, ACM TOMS 32, 2006).  With the
push-forward maps A_t of :func:`~quadcurl.fespace.push_forward` and the
reference table r_qi (Q points, n basis functions, c components),

    int_t (A_t r_i) . (A_t r_j) = sum_ab G_t[a,b] R[ab,ij],
    G_t = |det J_t| A_t^T A_t,   R[ab,ij] = sum_q w_q r_qia r_qjb,

which is the one kernel :func:`_gram` behind the edge mass (A = J^{-T} on
values), the curl-curl matrix (A = J / det J on curls) and the nodal mass
(a 1x1 map).  Loads pull f back instead, f(x) . (A r_i) = (A^T f) . r_i, and
contract once with the reference table.  Default quadrature degrees are the
exact ones: 2k for mass and 2k - 2 for curl-curl at order k.

Local blocks are scattered by triplet accumulation; duplicate triplets merge
by addition when the store is compressed.  The result does not depend on the
order of the element loop beyond roundoff (~1e-13 relative), which also makes
a partitioned/merged parallel assembly admissible.

Matrices are returned on the active DoF set of the space arguments: the full
layout for unconstrained spaces, and the free subset for constrained ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SpaceError
from .fespace import DofVector, FESpace, map_points, push_forward, reference_basis
from .quadrature import tet_rule
from .reference import ref_gradient_matrix

LOAD_DEGREE = 10  # default quadrature degree for analytic load integrands


@dataclass
class SparseMatrix:
    """Compressed sparse matrix with a symmetry tag.

    Built from triplets; duplicate (row, col) pairs merge by addition during
    compression.  ``mat`` is the CSR store.
    """

    mat: sp.csr_matrix
    symmetric: bool = False

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals, symmetric=False) -> "SparseMatrix":
        rows = np.asarray(rows).ravel()
        cols = np.asarray(cols).ravel()
        if len(rows) and (
            rows.min() < 0 or rows.max() >= shape[0] or cols.min() < 0 or cols.max() >= shape[1]
        ):
            raise SpaceError("triplet index out of range")
        m = sp.coo_matrix((np.asarray(vals).ravel(), (rows, cols)), shape=shape).tocsr()
        m.sum_duplicates()
        return cls(m, symmetric)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    @property
    def T(self) -> "SparseMatrix":
        return SparseMatrix(self.mat.T.tocsr(), self.symmetric)

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    def max_abs(self) -> float:
        return float(np.abs(self.mat.data).max()) if self.mat.nnz else 0.0

    def asymmetry(self) -> float:
        d = self.mat - self.mat.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0

    def dump(self, path: str) -> None:
        """Coordinate text format: one 'row col value' line per stored entry."""
        coo = self.mat.tocoo()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v:.17g}\n")


def _check_edge_pair(row_space: FESpace, col_space: FESpace) -> None:
    if row_space.family != "edge" or col_space.family != "edge":
        raise SpaceError("curl-curl assembly needs edge spaces")
    if row_space.order != col_space.order:
        raise SpaceError("row/col spaces differ in order")
    if row_space.mesh is not col_space.mesh:
        raise SpaceError("row/col spaces live on different meshes")


def _scatter_square(space_rows: FESpace, space_cols: FESpace, local: np.ndarray, symmetric: bool) -> SparseMatrix:
    nb = local.shape[1]
    rows = np.broadcast_to(space_rows.cell_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(space_cols.cell_dofs[:, None, :], local.shape)
    full = SparseMatrix.from_triplets(
        (space_rows.ndofs, space_cols.ndofs), rows, cols, local, symmetric
    )
    return restrict(full, space_rows.active_dofs, space_cols.active_dofs)


def _gram(ref: np.ndarray, A: np.ndarray, absdet: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Local blocks int_t (A_t r_i) . (A_t r_j), shape (T, n, n).

    ``ref`` is the reference table (Q, n, c) at the rule's points, ``A`` the
    per-tet push-forward (T, d, c) and ``absdet`` the |det J| per tet.
    """
    _, n, c = ref.shape
    R = np.einsum("q,qia,qjb->abij", weights, ref, ref).reshape(c * c, n * n)
    G = absdet[:, None, None] * (A.transpose(0, 2, 1) @ A)
    return (G.reshape(-1, c * c) @ R).reshape(-1, n, n)


def assemble_mass(space: FESpace, degree: int | None = None) -> SparseMatrix:
    """Mass matrix (phi_j, phi_i) on the active DoF set of the space."""
    rule = tet_rule(degree if degree is not None else 2 * space.order)
    value_map, _, absdet = push_forward(space)
    ref, _ = reference_basis(space, rule.points)
    local = _gram(ref, value_map, absdet, rule.weights)
    return _scatter_square(space, space, local, symmetric=True)


def assemble_curlcurl(row_space: FESpace, col_space: FESpace | None = None, degree: int | None = None) -> SparseMatrix:
    """Curl-curl matrix (curl phi_j, curl phi_i), row/col active sets applied.

    With distinct constraint flags this directly yields the rectangular
    coupling block between the constrained and unconstrained space.
    """
    if col_space is None:
        col_space = row_space
    _check_edge_pair(row_space, col_space)
    rule = tet_rule(degree if degree is not None else 2 * row_space.order - 2)
    _, curl_map, absdet = push_forward(row_space)
    _, ref = reference_basis(row_space, rule.points)
    local = _gram(ref, curl_map, absdet, rule.weights)
    return _scatter_square(row_space, col_space, local, symmetric=row_space is col_space)


def assemble_gradient_map(nodal_space: FESpace, edge_space: FESpace) -> SparseMatrix:
    """Discrete gradient G: nodal coefficients -> edge coefficients, exactly.

    The reference matrix of edge-moment functionals applied to nodal shape
    gradients is the same on every tet (gradients pull back covariantly), so
    assembly reduces to scattering one constant block.  Entries from adjacent
    tets agree, so duplicates are deduplicated rather than accumulated.
    """
    if nodal_space.family != "nodal" or edge_space.family != "edge":
        raise SpaceError("gradient map needs (nodal, edge) spaces")
    if nodal_space.order != edge_space.order:
        raise SpaceError("gradient map needs matching orders")
    if nodal_space.mesh is not edge_space.mesh:
        raise SpaceError("gradient map spaces live on different meshes")
    g_ref = ref_gradient_matrix(edge_space.order)
    T = edge_space.mesh.num_tets
    rows = np.broadcast_to(edge_space.cell_dofs[:, :, None], (T,) + g_ref.shape).ravel()
    cols = np.broadcast_to(nodal_space.cell_dofs[:, None, :], (T,) + g_ref.shape).ravel()
    vals = np.broadcast_to(g_ref[None, :, :], (T,) + g_ref.shape).ravel()
    key = rows * nodal_space.ndofs + cols
    _, keep = np.unique(key, return_index=True)
    full = SparseMatrix.from_triplets(
        (edge_space.ndofs, nodal_space.ndofs), rows[keep], cols[keep], vals[keep]
    )
    return restrict(full, edge_space.active_dofs, nodal_space.active_dofs)


def assemble_load(space: FESpace, f, degree: int = LOAD_DEGREE) -> DofVector:
    """Load vector entries (f, phi_i) over the full DoF layout."""
    rule = tet_rule(degree)
    value_map, _, absdet = push_forward(space)
    ref, _ = reference_basis(space, rule.points)
    Q, n, c = ref.shape
    T = len(absdet)
    pulled = f(map_points(space.mesh, rule.points)).reshape(T, Q, -1) @ value_map
    pulled *= rule.weights[:, None]
    local = absdet[:, None] * (pulled.reshape(T, Q * c) @ ref.transpose(0, 2, 1).reshape(Q * c, n))
    out = np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.ndofs)
    return DofVector(space, out)


def restrict(obj, rows: np.ndarray, cols: np.ndarray | None = None):
    """Restrict a SparseMatrix (rows x cols) or a 1-D vector (rows)."""
    if isinstance(obj, SparseMatrix):
        if cols is None:
            cols = rows
        sub = obj.mat[rows][:, cols].tocsr()
        sym = obj.symmetric and np.array_equal(rows, cols)
        return SparseMatrix(sub, sym)
    if isinstance(obj, DofVector):
        return obj.values[rows]
    return np.asarray(obj)[rows]
