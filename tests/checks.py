"""Checks used only by the tests: a pointwise evaluator of discrete fields,
the discrete divergence of edge-space fields, Gram matrices and loads under
a chosen tet rule, an oracle for the blocks a record keeps, and the boundary
traces and divergence of the manufactured cases."""

import numpy as np
import scipy.sparse as sp

from quadcurl.assembly import assemble_gradient_map, assemble_mass
from quadcurl.fespace import DofVector, FESpace, push_forward
from quadcurl.quadrature import tet_rule


def physical_points(mesh, ref_points) -> np.ndarray:
    """Chosen reference points pushed to every tet: (T, n, 3)."""
    origin = mesh.vertices[mesh.tets[:, 0]]
    return origin[:, None, :] + np.asarray(ref_points, dtype=np.float64) @ mesh.jac.transpose(0, 2, 1)


def eval_at(vec: DofVector, ref_points):
    """A field on every tet at chosen reference points: (values, derivatives).

    For the edge family, values and curls, both (T, n, 3); for the nodal
    family, values (T, n) and gradients (T, n, 3).  It is the library's
    contraction of reference tables with the push-forward maps, so at a tet
    rule's points it is bitwise the library's evaluation.
    """
    space = vec.space
    vals, derivs = space.element.tabulate(np.asarray(ref_points, dtype=np.float64))
    coeffs = vec.values[space.cell_dofs]
    fields = [np.tensordot(coeffs, ref, axes=(1, 1)) @ A.transpose(0, 2, 1)
              for ref, A in zip((vals, derivs), push_forward(space))]
    if space.family == "nodal":
        fields[0] = fields[0][..., 0]
    return tuple(fields)


def divergence_residual(edge_space: FESpace, nodal_space: FESpace, u) -> float:
    """Discrete divergence residual ||G^T M u|| / ||M u|| (0 for u = 0).

    G maps the free nodal DoFs (S_h).  A DofVector u lives in U_h, the edge
    space's full layout; an array u in U_{0,h}, its free DoFs, where M and G
    keep the free rows.
    """
    rows = slice(None) if isinstance(u, DofVector) else edge_space.free_dofs
    M = assemble_mass(edge_space).mat[rows][:, rows]
    G = assemble_gradient_map(nodal_space, edge_space).mat[rows][:, nodal_space.free_dofs]
    vals = u.values if isinstance(u, DofVector) else np.asarray(u)
    Mu = M @ vals
    den = np.linalg.norm(Mu)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm(G.T @ Mu) / den)


def _pushed_basis(space, half, rule) -> np.ndarray:
    """Physical basis values (half 0) or derivatives (half 1) at a rule's
    points: (T, Q, n, d)."""
    ref = space.element.tabulate(rule.points)[half]
    ref = ref.reshape(ref.shape[0], space.element.ndofs, -1)
    return np.einsum("tdc,qnc->tqnd", push_forward(space)[half], ref)


def gram_at_degree(space, half: int, degree: int) -> np.ndarray:
    """Dense full-layout Gram matrix of the basis values (half 0) or
    derivatives (half 1) under the degree-``degree`` tet rule."""
    rule = tet_rule(degree)
    phi = _pushed_basis(space, half, rule)
    local = np.einsum("q,t,tqid,tqjd->tij", rule.weights, np.abs(space.mesh.jac_det), phi, phi)
    every = np.arange(space.ndofs)
    return coo_scatter(space, local, every, every).toarray()


def load_at_degree(space, f, degree: int) -> np.ndarray:
    """Full-layout load vector (f, phi_i) under the degree-``degree`` tet rule."""
    rule = tet_rule(degree)
    phi = _pushed_basis(space, 0, rule)
    T, Q = phi.shape[:2]
    fx = np.asarray(f(physical_points(space.mesh, rule.points))).reshape(T, Q, -1)
    local = np.einsum("q,t,tqd,tqnd->tn", rule.weights, np.abs(space.mesh.jac_det), fx, phi)
    return np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.ndofs)


def coo_scatter(space, local, row_dofs, col_dofs) -> sp.csr_matrix:
    """The triplet path the coupling pattern replaced: local blocks (T, n, n)
    as COO triplets, those outside the kept rows or columns dropped, then
    compressed."""
    def position(dofs):
        pos = np.full(space.ndofs, -1)
        pos[dofs] = np.arange(len(dofs))
        return pos

    r, c, v = np.broadcast_arrays(position(row_dofs)[space.cell_dofs[:, :, None]],
                                  position(col_dofs)[space.cell_dofs[:, None, :]], local)
    keep = (r >= 0) & (c >= 0)
    shape = (len(row_dofs), len(col_dofs))
    return sp.coo_matrix((v[keep], (r[keep], c[keep])), shape=shape).tocsr()


def nonzero_pattern(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the nonzeros of a dense matrix, row by row."""
    r, c = np.nonzero(dense)
    return np.concatenate([[0], np.cumsum(np.bincount(r, minlength=dense.shape[0]))]), c


def assert_block_of(got: sp.csr_matrix, full: sp.csr_matrix, row_dofs, col_dofs, pattern) -> None:
    """``got`` is the block (row_dofs, col_dofs) of the full-layout operator
    ``full``, without scipy's slicing: sorted indices in ``full``'s index
    dtype, the (indptr, indices) of ``pattern``, and data bitwise the dense
    full layout's at those positions."""
    dense = full.toarray()[np.ix_(row_dofs, col_dofs)]
    assert got.shape == dense.shape and got.has_sorted_indices
    indptr, indices = pattern
    assert got.indptr.dtype == got.indices.dtype == full.indices.dtype
    assert np.array_equal(got.indptr, indptr) and np.array_equal(got.indices, indices)
    want = dense[np.repeat(np.arange(dense.shape[0]), np.diff(indptr)), indices]
    assert got.data.dtype == want.dtype and got.data.tobytes() == want.tobytes()


def boundary_trace_violation(case, samples_per_face: int = 40) -> float:
    """Largest tangential-trace magnitude of u (and curl u when declared
    zero) sampled on the cube boundary."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for axis in range(3):
        for val in (0.0, 1.0):
            pts = rng.random((samples_per_face, 3))
            pts[:, axis] = val
            nu = np.zeros(3)
            nu[axis] = 1.0
            worst = max(worst, np.abs(np.cross(case.u(pts), nu)).max())
            if case.tangential_curl_zero:
                worst = max(worst, np.abs(np.cross(case.curl_u(pts), nu)).max())
    return worst


def divergence_violation(case, samples: int = 100, h: float = 1e-5) -> float:
    """Max |div u| at interior sample points, by central differences."""
    rng = np.random.default_rng(11)
    pts = 0.1 + 0.8 * rng.random((samples, 3))
    div = np.zeros(samples)
    for axis in range(3):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, axis] += h
        dm[:, axis] -= h
        div += (case.u(dp)[:, axis] - case.u(dm)[:, axis]) / (2.0 * h)
    return float(np.abs(div).max())
