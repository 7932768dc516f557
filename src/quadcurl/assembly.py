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
contract once with the reference table.  Each integral has one rule: the
exact one for Gram blocks of order-k values or derivatives (``half`` 0, 1),
degree 2k - 2 half, and ``fespace.SAMPLE_DEGREE`` for loads; its reference
table is the one ``fespace`` keeps per (family, order, degree).

Local blocks land on a coupling pattern: the CSR pattern of the full-layout
DoF pairs that share a tet, built by one stable argsort of the (T, n, n) pair
keys, with a slot map from every local entry to its data position.  An
operator's values are then one ``np.bincount`` of its local blocks over the
slots; the contributions to an entry add in element order.  The result does
not depend on the order of the element loop beyond roundoff (~1e-13
relative), which also makes a partitioned/merged parallel assembly
admissible.  The pattern is the space's ``FESpace.coupling``, built on the
space's first operator and kept with it, so the operators a record
assembles on one space are sorted once between them.

Every operator is returned on the full layout of its spaces; which rows and
columns carry a boundary condition is the records' business (``systems``).
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


def _scatter(pattern: _Pattern, vals) -> SparseMatrix:
    """Sum values onto a full-layout pattern: the operator's CSR matrix.

    ``pattern`` is the space's ``coupling`` for mass and curl-curl, and one
    built for the call for the gradient map.  ``vals`` holds one value per
    input pair of the pattern, in its shape; the values at one position add
    in the order of the pairs.
    """
    data = np.bincount(pattern.slot.ravel(), np.ravel(vals), minlength=pattern.nnz)
    return SparseMatrix(sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape))


@lru_cache(maxsize=None)
def _reference_tensor(family: str, order: int, half: int) -> np.ndarray:
    """R[ab, ij] of the module docstring, (c * c, n * n) and read-only: the
    contraction of the shared table of the exact rule, once per key."""
    degree = 2 * order - 2 * half
    ref = _reference_tables(family, order, degree)[half]
    _, n, c = ref.shape
    R = np.einsum("q,qia,qjb->abij", tet_rule(degree).weights, ref, ref).reshape(c * c, n * n)
    R.flags.writeable = False
    return R


def _gram(space: FESpace, half: int) -> np.ndarray:
    """Local blocks int_t (A_t r_i) . (A_t r_j), shape (T, n, n), exactly.

    r is the space's reference table of values (``half`` 0) or derivatives
    (``half`` 1), and A_t its push-forward from :func:`push_forward`.
    """
    R = _reference_tensor(space.family, space.order, half)
    maps = push_forward(space)
    A, absdet = maps[half], maps[2]
    n = space.element.ndofs
    G = absdet[:, None, None] * (A.transpose(0, 2, 1) @ A)
    return (G.reshape(len(absdet), -1) @ R).reshape(-1, n, n)


def assemble_mass(space: FESpace) -> SparseMatrix:
    """Mass matrix (phi_j, phi_i) on the full layout of the space."""
    return _scatter(space.coupling, _gram(space, 0))


def assemble_curlcurl(space: FESpace) -> SparseMatrix:
    """Curl-curl matrix (curl phi_j, curl phi_i) on the full layout of an edge space."""
    if space.family != "edge":
        raise SpaceError("curl-curl assembly needs an edge space")
    return _scatter(space.coupling, _gram(space, 1))


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
    return _scatter(pairs, vals[nz])


def assemble_load(space: FESpace, f) -> DofVector:
    """Load vector entries (f, phi_i) over the full DoF layout, at ``SAMPLE_DEGREE``."""
    value_map, _, absdet = push_forward(space)
    ref, _ = reference_basis(space)
    Q, n, c = ref.shape
    T = len(absdet)
    pulled = f(map_points(space.mesh)).reshape(T, Q, -1) @ value_map
    pulled *= tet_rule(SAMPLE_DEGREE).weights[:, None]
    local = absdet[:, None] * (pulled.reshape(T, Q * c) @ ref.transpose(0, 2, 1).reshape(Q * c, n))
    out = np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.ndofs)
    return DofVector(space, out)

