"""Global finite element spaces, interpolation, and field evaluation.

A space couples a mesh with one reference family, ``edge`` or ``nodal``.  Its
layout is ``reference.DOFS_PER_ENTITY[(family, order)]``, the DoFs k per
vertex, edge and face, laid on the topology the mesh built: entity types in
that order, and slot j of entity e is global DoF offset + k e + j.
Interpolation walks the same table and applies ``reference.entity_dofs`` to
the mesh's entities, the functionals that also define the reference dual
basis: a nodal DoF is the field at the mean of the entity's corners (a vertex
or an edge midpoint), and the edge DoFs are tangential moments on the mesh's
edges and faces.

Since cells store ascending vertex indices, each global entity is traversed
identically by every cell that shares it and local DoFs map to global DoFs
without sign or permutation fixes.

The constrained variants (essential boundary condition u x n = 0, or scalar
trace zero) keep the full-length DoF layout and record the free subset: the
DoFs on entities off the topology's boundary masks.

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

Sampling.  Fields are evaluated only at tet-rule points, so the reference
tables (:func:`reference_basis`) and the mapped points (:func:`map_points`)
are keyed by the rule's degree; loads and error norms sample at
``SAMPLE_DEGREE``.

Errors.  :func:`integrate_errors` evaluates a field and integrates a norm
only for the exact fields it is given: a None exact field means that norm is
not computed, so its half of the field is never evaluated and it reads None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import SpaceError
from .mesh import Mesh
from .quadrature import tet_rule
from .reference import DOFS_PER_ENTITY, entity_dofs, get_element

INTERP_DEGREE = 13  # quadrature degree for entity moments of analytic fields
SAMPLE_DEGREE = 10  # tet rule at which loads and error norms sample analytic fields


def _entities(mesh: Mesh):
    """(tet incidence, corner vertex ids, boundary mask) of vertices, edges and faces."""
    t = mesh.topology
    return ((mesh.tets, np.arange(mesh.num_vertices)[:, None], t.boundary_vertices),
            (t.tet_edges, t.edges, t.boundary_edges), (t.tet_faces, t.faces, t.boundary_faces))


class _Pattern:
    """CSR pattern of a set of full-layout (row, col) pairs, sorted once.

    ``rows`` and ``cols`` broadcast against each other.  One stable argsort of
    the keys row * ncols + col gives the distinct pairs in CSR order
    (``indptr``, ``indices``) and ``slot``, the data position of every input
    pair, in the broadcast shape; repeated pairs share a position.
    """

    def __init__(self, shape: tuple[int, int], rows, cols):
        keys = rows * shape[1] + cols
        slot_shape = keys.shape
        keys = keys.ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.empty(len(keys), dtype=bool)  # a pair differs from the one before it
        new[:1] = False
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        rank = new.astype(np.intp)
        np.cumsum(rank, out=rank)
        slot = np.empty_like(order)
        slot[order] = rank
        self.slot = slot.reshape(slot_shape)
        new[:1] = True
        keys = keys[new]
        self.indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
        keys -= np.repeat(np.arange(shape[0]) * shape[1], np.diff(self.indptr))
        self.indices = keys

    @property
    def nnz(self) -> int:
        return len(self.indices)


@dataclass(eq=False)
class FESpace:
    """A global FE space; ``cell_dofs`` (T, element ndofs) holds each tet's
    global DoFs in the element's order.  See the module docstring for the layout.
    """

    mesh: Mesh
    family: str
    order: int
    constrained: bool
    ndofs: int = field(init=False)
    cell_dofs: np.ndarray = field(init=False)
    free_dofs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.element = get_element(self.family, self.order)
        cells, free, offset = [], [], 0
        for k, (tet_entities, corners, boundary) in zip(
                DOFS_PER_ENTITY[self.family, self.order], _entities(self.mesh)):
            slots = offset + k * tet_entities[..., None] + np.arange(k)
            cells.append(slots.reshape(len(slots), -1))
            free.append(np.repeat(~boundary, k))
            offset += k * len(corners)
        self.ndofs = offset
        self.cell_dofs = np.hstack(cells)
        self.free_dofs = np.flatnonzero(np.concatenate(free))
        self.free_dofs.flags.writeable = False
        self.cell_dofs.flags.writeable = False

    @cached_property
    def coupling(self) -> _Pattern:
        """Pattern of the DoF pairs that share a tet, on the full layout.

        Built on first use and kept as long as the space, so every operator
        assembled with this space as its row space scatters onto one sort.
        """
        dofs = self.cell_dofs
        return _Pattern((self.ndofs, self.ndofs), dofs[:, :, None], dofs[:, None, :])

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


@dataclass(eq=False)
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


def make_space(mesh: Mesh, family: str, order: int, constrained: bool = False) -> FESpace:
    """Build a global space on the mesh's topology."""
    return FESpace(mesh, family, order, constrained)


# --- geometry ---------------------------------------------------------------


def map_points(mesh: Mesh, degree: int) -> np.ndarray:
    """Points of the degree-``degree`` tet rule on every tet: (T, Q, 3), read-only.

    The mesh keeps its last mapping under its degree, so a source solve's
    load and error integrals all get the same array object, which owns its
    memory; the manufactured fields rely on it to take the trig once.
    """
    if mesh._mapped_points is None or mesh._mapped_points[0] != degree:
        origin = mesh.vertices[mesh.tets[:, 0]]
        points = origin[:, None, :] + tet_rule(degree).points @ mesh.jac.transpose(0, 2, 1)
        points.flags.writeable = False
        mesh._mapped_points = (degree, points)
    return mesh._mapped_points[1]


def reference_basis(space: FESpace, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference basis values and derivatives at a tet rule's points, each (Q, n, c).

    Nodal values have one component, so both families push forward through
    the (T, d, c) maps of :func:`push_forward`.  The tables are tabulated
    once per (family, order, degree) and shared read-only.
    """
    return _reference_tables(space.family, space.order, degree)


@lru_cache(maxsize=None)  # bounded: only degrees 0..MAX_DEGREE succeed
def _reference_tables(family: str, order: int, degree: int):
    tables = get_element(family, order).tabulate(tet_rule(degree).points)
    for t in tables:
        t.flags.writeable = False
    return tables


def push_forward(space: FESpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tet maps of reference values and derivatives, and |det J|.

    Returns (value_map, deriv_map, absdet); see the module docstring.
    """
    mesh = space.mesh
    JinvT = mesh.jac_inv.transpose(0, 2, 1)
    absdet = np.abs(mesh.jac_det)
    if space.family == "edge":
        return JinvT, mesh.jac / mesh.jac_det[:, None, None], absdet
    return np.ones((mesh.num_tets, 1, 1)), JinvT, absdet


# --- evaluation -------------------------------------------------------------


def _cell_field(vec: DofVector, degree: int, half: int) -> np.ndarray:
    """Values (half 0) or derivatives (half 1) of a field at the degree-``degree``
    rule's points on every tet, a fresh (T, Q, 3) array; nodal values are (T, Q)."""
    space = vec.space
    ref, A = reference_basis(space, degree)[half], push_forward(space)[half]
    field = np.tensordot(vec.values[space.cell_dofs], ref, axes=(1, 1)) @ A.transpose(0, 2, 1)
    return field[..., 0] if space.family == "nodal" and half == 0 else field


# --- interpolation ----------------------------------------------------------


def interpolate(space: FESpace, fn, degree: int = INTERP_DEGREE) -> DofVector:
    """Interpolation of an analytic field by the space's DoF functionals.

    For the edge family, fn maps points (..., 3) to vector values (..., 3)
    and the edge/face moment functionals are evaluated with a quadrature of
    the given degree.  For the nodal family, fn maps (..., 3) to scalars,
    taken at vertices (and edge midpoints for order 2).
    """
    return DofVector(space, np.concatenate([
        entity_dofs(space.family, fn, space.mesh.vertices[corners], space.order, degree).ravel()
        for k, (_, corners, _) in zip(DOFS_PER_ENTITY[space.family, space.order],
                                      _entities(space.mesh)) if k]))


# --- norms and errors -------------------------------------------------------


def integrate_errors(
    vec: DofVector,
    exact_value=None,
    exact_deriv=None,
    degree: int = SAMPLE_DEGREE,
) -> tuple[float | None, float | None]:
    """L2 norms of (u_h - exact_value) and of the derivative mismatch.

    The derivative is the curl for the edge family and the gradient for the
    nodal family.  None for either exact field means that norm is not
    computed: that half of u_h is not evaluated, and its slot is None.
    """
    mesh = vec.space.mesh
    rule = tet_rule(degree)
    absdet = np.abs(mesh.jac_det)

    def error(half, exact):
        if exact is None:
            return None
        err = _cell_field(vec, degree, half)
        err -= exact(map_points(mesh, degree))
        # Squared components added in order: bitwise a sum over the component
        # axis, without numpy's reduction overhead on a length-3 axis.
        err = err.reshape(len(absdet), len(rule.weights), -1)
        sq = err[..., 0] * err[..., 0]
        for c in range(1, err.shape[2]):
            sq += err[..., c] * err[..., c]
        return float(np.sqrt(absdet @ sq @ rule.weights))

    return error(0, exact_value), error(1, exact_deriv)
