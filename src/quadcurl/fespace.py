"""Global finite element spaces, interpolation, and field evaluation.

A space couples a mesh with one reference family:

* ``edge`` order k: one DoF per edge moment (k per edge) plus, for k = 2,
  two per face.
* ``nodal`` order k: scalar Lagrange, one DoF per vertex (and per edge
  midpoint for k = 2).

Since cells store ascending vertex indices, each global entity is traversed
identically by every cell that shares it and local DoFs map to global DoFs
without sign or permutation fixes.

The constrained variants (essential boundary condition u x n = 0, or scalar
trace zero) keep the full-length DoF layout and record the free subset.

Geometry.  The maps from the reference tet are affine, x = x_0 + J x_hat, and
the mesh keeps J, J^{-1} and det J of every tet.  A basis function with
reference value r and reference derivative d has the physical value A r and
derivative D d, where :func:`push_forward` gives the per-tet matrices:

* edge (covariant): A = J^{-T}, and the curl maps by D = J / det J;
* nodal: A = 1 (a 1x1 map of the one-component value), gradients by
  D = J^{-T}.

This is the only place where the family changes the math: every element
integral and field evaluation is a contraction of a reference table with
these maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceError
from .mesh import BoundarySet, LOCAL_FACES, Mesh, Topology, boundary_classification, build_topology
from .quadrature import segment_rule, tet_rule, triangle_rule
from .reference import get_element

INTERP_DEGREE = 13  # quadrature degree for entity moments of analytic fields


@dataclass
class FESpace:
    """A global FE space; see module docstring for the DoF layout."""

    mesh: Mesh
    topo: Topology
    boundary: BoundarySet
    family: str
    order: int
    constrained: bool
    ndofs: int = field(init=False)
    cell_dofs: np.ndarray = field(init=False)
    free_dofs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.family not in ("edge", "nodal"):
            raise SpaceError(f"unknown family {self.family!r}")
        if self.order not in (1, 2):
            raise SpaceError(f"order must be 1 or 2, got {self.order}")
        self.element = get_element(self.family, self.order)
        topo, bnd = self.topo, self.boundary
        E, F, V = topo.num_edges, topo.num_faces, self.mesh.num_vertices
        emask, fmask, vmask = bnd.edge_mask(), bnd.face_mask(), bnd.vertex_mask()

        if self.family == "edge" and self.order == 1:
            self.ndofs = E
            self.cell_dofs = topo.tet_edges.copy()
            free = ~emask
        elif self.family == "edge":
            self.ndofs = 2 * E + 2 * F
            cd = np.empty((self.mesh.num_tets, 20), dtype=np.int64)
            cd[:, 0:12:2] = 2 * topo.tet_edges
            cd[:, 1:12:2] = 2 * topo.tet_edges + 1
            cd[:, 12::2] = 2 * E + 2 * topo.tet_faces
            cd[:, 13::2] = 2 * E + 2 * topo.tet_faces + 1
            self.cell_dofs = cd
            free = np.empty(self.ndofs, dtype=bool)
            free[0 : 2 * E : 2] = free[1 : 2 * E : 2] = ~emask
            free[2 * E :: 2] = free[2 * E + 1 :: 2] = ~fmask
        elif self.order == 1:
            self.ndofs = V
            self.cell_dofs = self.mesh.tets.copy()
            free = ~vmask
        else:
            self.ndofs = V + E
            self.cell_dofs = np.hstack([self.mesh.tets, V + topo.tet_edges])
            free = np.concatenate([~vmask, ~emask])

        self.free_dofs = np.flatnonzero(free)
        self.free_dofs.flags.writeable = False
        self.cell_dofs.flags.writeable = False

    @property
    def num_free(self) -> int:
        return len(self.free_dofs)

    @property
    def active_dofs(self) -> np.ndarray:
        """DoFs carried by assembled operators: the free set when constrained."""
        return self.free_dofs if self.constrained else np.arange(self.ndofs)

    @property
    def num_active(self) -> int:
        return self.num_free if self.constrained else self.ndofs

    def embed(self, active_values: np.ndarray) -> "DofVector":
        """Expand a vector over active DoFs to a full-length DofVector."""
        full = np.zeros(self.ndofs)
        full[self.active_dofs] = active_values
        return DofVector(self, full)


@dataclass
class DofVector:
    """Coefficients over the full DoF layout of a space."""

    space: FESpace
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.space.ndofs,):
            raise SpaceError(
                f"DofVector length {self.values.shape} does not match space"
                f" dimension {self.space.ndofs}"
            )


def make_space(
    mesh: Mesh,
    family: str,
    order: int,
    constrained: bool = False,
    topo: Topology | None = None,
    boundary: BoundarySet | None = None,
) -> FESpace:
    """Build a global space; topology/boundary are derived when not supplied."""
    if topo is None:
        topo = build_topology(mesh)
    if boundary is None:
        boundary = boundary_classification(mesh, topo)
    return FESpace(mesh, topo, boundary, family, order, constrained)


# --- geometry ---------------------------------------------------------------


def cell_geometry(mesh: Mesh):
    """Per-tet affine data kept on the mesh: J (T,3,3), its inverse, det J, |det J|."""
    return mesh.jac, mesh.jac_inv, mesh.jac_det, np.abs(mesh.jac_det)


def map_points(mesh: Mesh, ref_points: np.ndarray) -> np.ndarray:
    """Push reference points to every tet: (T, n, 3)."""
    origin = mesh.vertices[mesh.tets[:, 0]]
    return origin[:, None, :] + ref_points @ mesh.jac.transpose(0, 2, 1)


def physical_to_reference(mesh: Mesh, tet: int, x: np.ndarray) -> np.ndarray:
    """Pull physical points back to the reference tet of one cell."""
    x0 = mesh.vertices[mesh.tets[tet, 0]]
    return (np.atleast_2d(x) - x0) @ mesh.jac_inv[tet].T


def reference_basis(space: FESpace, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference basis values and derivatives at points, each (Q, n, c).

    Nodal values get a trailing axis of length 1, so both families push
    forward through the (T, d, c) maps of :func:`push_forward`.
    """
    vals, derivs = space.element.tabulate(points)
    return vals.reshape(derivs.shape[:2] + (-1,)), derivs


def push_forward(space: FESpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tet maps of reference values and derivatives, and |det J|.

    Returns (value_map, deriv_map, absdet); see the module docstring.
    """
    J, Jinv, detJ, absdet = cell_geometry(space.mesh)
    JinvT = Jinv.transpose(0, 2, 1)
    if space.family == "edge":
        return JinvT, J / detJ[:, None, None], absdet
    return np.ones((len(J), 1, 1)), JinvT, absdet


# --- evaluation -------------------------------------------------------------


def _pushed_field(coeffs: np.ndarray, ref: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Field (T, Q, d) of per-tet coefficients (T, n) on a reference table (Q, n, c)."""
    return np.tensordot(coeffs, ref, axes=(1, 1)) @ A.transpose(0, 2, 1)


def eval_cells(space: FESpace, vec: DofVector, ref_points: np.ndarray):
    """Evaluate a field on every tet at shared reference points.

    Returns (values, derivs): for the edge family, values and curls, both of
    shape (T, n, 3); for the nodal family, values (T, n) and gradients
    (T, n, 3).
    """
    rv, rd = reference_basis(space, ref_points)
    value_map, deriv_map, _ = push_forward(space)
    coeffs = vec.values[space.cell_dofs]
    vals = _pushed_field(coeffs, rv, value_map)
    if space.family == "nodal":
        vals = vals[..., 0]
    return vals, _pushed_field(coeffs, rd, deriv_map)


def eval_field(space: FESpace, vec: DofVector, tet: int, ref_point: np.ndarray):
    """Value and curl (edge family) or gradient (nodal) at one reference point."""
    pts = np.atleast_2d(np.asarray(ref_point, dtype=np.float64))
    tol = 1e-12
    if pts.min() < -tol or pts.sum(axis=1).max() > 1.0 + tol:
        raise SpaceError("evaluation point outside the reference tetrahedron")
    sub = _single_cell_view(space, tet)
    vals, derivs = eval_cells(sub, DofVector(sub, vec.values), pts)
    return vals[0, 0], derivs[0, 0]


def _single_cell_view(space: FESpace, tet: int) -> FESpace:
    """Cheap facade restricting eval_cells to one tet."""
    view = FESpace.__new__(FESpace)
    view.__dict__.update(space.__dict__)
    view.mesh = Mesh(space.mesh.vertices, space.mesh.tets[tet : tet + 1])
    view.cell_dofs = space.cell_dofs[tet : tet + 1]
    return view


# --- interpolation ----------------------------------------------------------


def interpolate(space: FESpace, fn, degree: int = INTERP_DEGREE) -> DofVector:
    """Entity-moment interpolation of an analytic field.

    For the edge family, fn maps points (..., 3) to vector values (..., 3)
    and the edge/face moment functionals are evaluated with a quadrature of
    the given degree.  For the nodal family, fn maps (..., 3) to scalars and
    interpolation is pointwise at vertices (and edge midpoints for order 2).
    """
    mesh, topo = space.mesh, space.topo
    verts = mesh.vertices
    out = np.zeros(space.ndofs)

    if space.family == "nodal":
        out[: mesh.num_vertices] = fn(verts)
        if space.order == 2:
            mids = 0.5 * (verts[topo.edges[:, 0]] + verts[topo.edges[:, 1]])
            out[mesh.num_vertices :] = fn(mids)
        return DofVector(space, out)

    rule = segment_rule(degree)
    s, w = rule.points[:, 0], rule.weights
    a = verts[topo.edges[:, 0]]
    d = verts[topo.edges[:, 1]] - a
    X = a[:, None, :] + s[None, :, None] * d[:, None, :]
    vals = fn(X)
    m0 = np.einsum("g,egc,ec->e", w, vals, d)
    if space.order == 1:
        out[:] = m0
        return DofVector(space, out)
    m1 = np.einsum("g,egc,ec->e", w * (2.0 * s - 1.0), vals, d)
    out[0 : 2 * topo.num_edges : 2] = m0
    out[1 : 2 * topo.num_edges : 2] = m1

    tri = triangle_rule(degree)
    st, wt = tri.points, tri.weights
    fa = verts[topo.faces[:, 0]]
    t0 = verts[topo.faces[:, 1]] - fa
    t1 = verts[topo.faces[:, 2]] - fa
    XF = (
        fa[:, None, :]
        + st[None, :, 0, None] * t0[:, None, :]
        + st[None, :, 1, None] * t1[:, None, :]
    )
    fvals = fn(XF)
    base = 2 * topo.num_edges
    out[base::2] = np.einsum("g,fgc,fc->f", wt, fvals, t0)
    out[base + 1 :: 2] = np.einsum("g,fgc,fc->f", wt, fvals, t1)
    return DofVector(space, out)


# --- norms and errors -------------------------------------------------------


def integrate_errors(
    space: FESpace,
    vec: DofVector,
    exact_value=None,
    exact_deriv=None,
    degree: int = 10,
) -> tuple[float, float]:
    """L2 norms of (u_h - exact_value) and of the derivative mismatch.

    The derivative is the curl for the edge family and the gradient for the
    nodal family.  Passing None for either exact field compares against zero,
    which turns the corresponding output into a plain L2 norm.
    """
    rule = tet_rule(degree)
    vals, derivs = eval_cells(space, vec, rule.points)
    X = map_points(space.mesh, rule.points)
    if exact_value is not None:
        vals = vals - exact_value(X)
    if exact_deriv is not None:
        derivs = derivs - exact_deriv(X)
    absdet = cell_geometry(space.mesh)[3]

    def norm(v):
        sq = (v * v).reshape(len(absdet), len(rule.weights), -1).sum(axis=2)
        return float(np.sqrt(absdet @ sq @ rule.weights))

    return norm(vals), norm(derivs)
