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
exact ones, 2k for mass and 2k - 2 for curl-curl at order k, and loads
sample f at ``fespace.SAMPLE_DEGREE``.  Every reference table is the one
``fespace`` keeps per (family, order, degree).

Local blocks land on a coupling pattern: the CSR pattern of the full-layout
DoF pairs that share a tet, built by one stable argsort of the (T, n, n) pair
keys, with a slot map from every local entry to its data position.  An
operator's values are then one ``np.bincount`` of its local blocks over the
slots; the contributions to an entry add in element order.  The result does
not depend on the order of the element loop beyond roundoff (~1e-13
relative), which also makes a partitioned/merged parallel assembly
admissible.  The pattern is the row space's ``FESpace.coupling``, built on
the space's first operator and kept with it, so the operators a record
assembles on one row space are sorted once between them.

Matrices are returned on the active DoF set of the space arguments: the full
layout for unconstrained spaces, and the free subset for constrained ones.
A constrained row or column space keeps the pattern's entries in its free
rows or columns, a gather that sorts nothing again, so no operator is built
on the full layout and then sliced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import SpaceError
from .fespace import (SAMPLE_DEGREE, DofVector, FESpace, _Pattern, _reference_tables,
                      map_points, push_forward, reference_basis)
from .quadrature import tet_rule
from .reference import ref_gradient_matrix


@dataclass(eq=False)
class SparseMatrix:
    """A sparse matrix; ``mat`` is the CSR store, which assembly builds on a
    coupling pattern."""

    mat: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

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


def _active_position(space: FESpace) -> np.ndarray:
    """Position of every full-layout DoF in the active set, -1 where inactive."""
    if not space.constrained:
        return np.arange(space.ndofs)
    pos = np.full(space.ndofs, -1)
    pos[space.free_dofs] = np.arange(space.num_free)
    return pos


def _scatter(row_space: FESpace, col_space: FESpace, pattern: _Pattern, vals) -> SparseMatrix:
    """Sum values onto a full-layout pattern, then keep the active DoF sets.

    ``pattern`` is the row space's ``coupling`` for mass and curl-curl, and
    one built for the call for the gradient map.  ``vals`` holds one value
    per input pair of the pattern, in its shape; the values at one position
    add in the order of the pairs.
    """
    data = np.bincount(pattern.slot.ravel(), np.ravel(vals), minlength=pattern.nnz)
    return _restrict(row_space, col_space, pattern.indptr, pattern.indices, data)


def _restrict(row_space: FESpace, col_space: FESpace, indptr, indices, data) -> SparseMatrix:
    """The CSR matrix (data, indices, indptr) of the full layout on the active DoF sets.

    A constrained space keeps the entries in its free rows or columns, a
    gather through a mask on the pattern, so nothing is sorted again; the
    entries kept are bitwise the full layout's.
    """
    if row_space.constrained or col_space.constrained:
        col_pos = _active_position(col_space)
        keep = np.repeat(_active_position(row_space) >= 0, np.diff(indptr))
        keep &= col_pos[indices] >= 0
        keep = np.flatnonzero(keep)
        indptr = np.searchsorted(keep, indptr[np.append(row_space.active_dofs, row_space.ndofs)])
        indices = col_pos[indices[keep]]
        data = data[keep]
    shape = (row_space.num_active, col_space.num_active)
    return SparseMatrix(sp.csr_matrix((data, indices, indptr), shape=shape))


@lru_cache(maxsize=None)
def _reference_tensor(family: str, order: int, half: int, degree: int) -> np.ndarray:
    """R[ab, ij] of the module docstring, (c * c, n * n) and read-only: the
    contraction of the shared table of the degree-``degree`` rule, once per key."""
    ref = _reference_tables(family, order, degree)[half]
    _, n, c = ref.shape
    R = np.einsum("q,qia,qjb->abij", tet_rule(degree).weights, ref, ref).reshape(c * c, n * n)
    R.flags.writeable = False
    return R


def _gram(space: FESpace, half: int, degree: int) -> np.ndarray:
    """Local blocks int_t (A_t r_i) . (A_t r_j), shape (T, n, n).

    r is the space's reference table of values (``half`` 0) or derivatives
    (``half`` 1) at the points of the degree-``degree`` rule, and A_t its
    push-forward from :func:`push_forward`.
    """
    R = _reference_tensor(space.family, space.order, half, degree)
    maps = push_forward(space)
    A, absdet = maps[half], maps[2]
    n = space.element.ndofs
    G = absdet[:, None, None] * (A.transpose(0, 2, 1) @ A)
    return (G.reshape(len(absdet), -1) @ R).reshape(-1, n, n)


def assemble_mass(space: FESpace, degree: int | None = None) -> SparseMatrix:
    """Mass matrix (phi_j, phi_i) on the active DoF set of the space."""
    local = _gram(space, 0, degree if degree is not None else 2 * space.order)
    return _scatter(space, space, space.coupling, local)


def assemble_curlcurl(row_space: FESpace, col_space: FESpace | None = None, degree: int | None = None) -> SparseMatrix:
    """Curl-curl matrix (curl phi_j, curl phi_i) on the row/col active sets.

    With distinct constraint flags this directly yields the rectangular
    coupling block between the constrained and unconstrained space.
    """
    if col_space is None:
        col_space = row_space
    _check_edge_pair(row_space, col_space)
    local = _gram(row_space, 1, degree if degree is not None else 2 * row_space.order - 2)
    return _scatter(row_space, col_space, row_space.coupling, local)


def assemble_gradient_map(nodal_space: FESpace, edge_space: FESpace) -> SparseMatrix:
    """Discrete gradient G: nodal coefficients -> edge coefficients, exactly.

    The reference matrix of edge-moment functionals applied to nodal shape
    gradients is the same on every tet (gradients pull back covariantly), so
    assembly reduces to scattering one constant block.  Every tet sharing an
    edge DoF gives it the same row, so each row is taken from one owner tet,
    and the block's exact zeros are not stored.
    """
    if nodal_space.family != "nodal" or edge_space.family != "edge":
        raise SpaceError("gradient map needs (nodal, edge) spaces")
    if nodal_space.order != edge_space.order:
        raise SpaceError("gradient map needs matching orders")
    if nodal_space.mesh is not edge_space.mesh:
        raise SpaceError("gradient map spaces live on different meshes")
    g_ref = ref_gradient_matrix(edge_space.order)
    rows, first = np.unique(edge_space.cell_dofs.ravel(), return_index=True)
    owner, local = np.divmod(first, g_ref.shape[0])
    vals = g_ref[local]
    nz = vals != 0.0
    pairs = _Pattern((edge_space.ndofs, nodal_space.ndofs),
                     np.broadcast_to(rows[:, None], vals.shape)[nz], nodal_space.cell_dofs[owner][nz])
    return _scatter(edge_space, nodal_space, pairs, vals[nz])


def assemble_load(space: FESpace, f, degree: int = SAMPLE_DEGREE) -> DofVector:
    """Load vector entries (f, phi_i) over the full DoF layout."""
    value_map, _, absdet = push_forward(space)
    ref, _ = reference_basis(space, degree)
    Q, n, c = ref.shape
    T = len(absdet)
    pulled = f(map_points(space.mesh, degree)).reshape(T, Q, -1) @ value_map
    pulled *= tet_rule(degree).weights[:, None]
    local = absdet[:, None] * (pulled.reshape(T, Q * c) @ ref.transpose(0, 2, 1).reshape(Q * c, n))
    out = np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.ndofs)
    return DofVector(space, out)

