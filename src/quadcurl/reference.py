"""Shape functions on the reference tetrahedron.

One construction serves both families: an element of order k is the dual
basis of a monomial list against the family's DoFs (:func:`entity_dofs`),
found by inverting the matrix of those DoFs applied to the monomials.  The
basis values and derivatives are the monomials' values and curls (edge) or
gradients (nodal), multiplied by the same inverse.

* ``edge``: the first-kind curl-conforming spaces of order 1 and 2,

      R_k = (P_{k-1})^3  (+)  x cross (homogeneous P_{k-1})^3,

  with dimensions 6 and 20.  The monomials are P_{k-1} e_d, then x cross (m e_d)
  for each degree-(k-1) monomial m, leaving out d = z where z divides m: those
  terms complement the kernel {q x} of x cross.  Degrees of freedom are
  tangential moments on edges (k moments per edge against 1 and 2s-1) and,
  for k = 2, two constant tangential moments per face.  For k = 1 the dual
  basis is the classical lam_a grad lam_b - lam_b grad lam_a.

* ``nodal``: scalar Lagrange elements of order 1 and 2, the monomials of P_k
  dual to the values at the vertices, plus the edge midpoints for order 2.

All moment functionals are written against the parametrizations

    edge (a,b):    x(s) = v_a + s (v_b - v_a),            s in [0,1],
    face (a,b,c):  x(s,t) = v_a + s (v_b - v_a) + t (v_c - v_a),

with the *unnormalized* direction vectors and the parametric measure.  These
functionals commute with the covariant pull-back of any affine map that sends
reference vertices to physical vertices in order, which is what makes a single
global degree of freedom per mesh entity well defined.  They are coded once,
in :func:`entity_dofs`: the dual basis applies it to the reference tet's
entities, and ``fespace.interpolate`` to the mesh's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SpaceError
from .mesh import LOCAL_EDGES, LOCAL_FACES
from .quadrature import segment_rule, triangle_rule

REF_VERTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

# DoFs per (vertex, edge, face) of each (family, order): the one table of the
# elements that exist.  An element lists its DoFs type by type, in
# LOCAL_EDGES / LOCAL_FACES order, so 4v + 6e + 4f = ndofs.
DOFS_PER_ENTITY = {("edge", 1): (0, 1, 0), ("edge", 2): (0, 2, 2),
                   ("nodal", 1): (1, 0, 0), ("nodal", 2): (1, 1, 0)}
_LOCAL_ENTITIES = (np.arange(4)[:, None], LOCAL_EDGES, LOCAL_FACES)

# --- tiny exponent-dict polynomials -----------------------------------------
# A scalar polynomial is {exponent tuple: coeff}, the exponents of (x, y, z)
# here (manufactured.py uses the same ring over cos and sin of pi x_k); a
# vector field is a tuple of components: 3 for the edge family, 1 for nodal.

Poly = dict


def poly_eval(p: Poly, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[:-1])
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    for (i, j, k), c in p.items():
        out += c * x**i * y**j * z**k
    return out


def poly_diff(p: Poly, axis: int) -> Poly:
    out: Poly = {}
    for exp, c in p.items():
        if exp[axis] == 0:
            continue
        new = list(exp)
        new[axis] -= 1
        out[tuple(new)] = out.get(tuple(new), 0.0) + c * exp[axis]
    return out


def vec_eval(vp, pts: np.ndarray) -> np.ndarray:
    return np.stack([poly_eval(c, pts) for c in vp], axis=-1)


def vec_curl(vp, diff=poly_diff):
    """Curl of a vector polynomial, with diff(p, axis) as the partial derivative."""
    u0, u1, u2 = vp
    return (
        poly_sub(diff(u2, 1), diff(u1, 2)),
        poly_sub(diff(u0, 2), diff(u2, 0)),
        poly_sub(diff(u1, 0), diff(u0, 1)),
    )


def poly_sub(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for exp, c in b.items():
        out[exp] = out.get(exp, 0) - c
        if out[exp] == 0.0:
            del out[exp]
    return out


# --- monomial bases ------------------------------------------------------------


def _exponents(degree: int) -> list[tuple[int, int, int]]:
    """Exponents of the monomials of P_degree, by degree, x before y before z."""
    return [(i, j, s - i - j) for s in range(degree + 1)
            for i in range(s, -1, -1) for j in range(s - i, -1, -1)]


def _shift(exp, axis: int) -> tuple[int, int, int]:
    """Exponent of x_axis times the monomial with exponent exp."""
    return tuple(n + (i == axis) for i, n in enumerate(exp))


def _edge_monomials(order: int) -> list:
    """Monomial basis of R_order: P_{k-1} e_d, then the x cross (m e_d)."""
    fields = []
    for d in range(3):
        for exp in _exponents(order - 1):
            vp = ({}, {}, {})
            vp[d][exp] = 1.0
            fields.append(vp)
    top = [e for e in _exponents(order - 1) if sum(e) == order - 1]
    for d in range(3):
        a, b = (d + 1) % 3, (d + 2) % 3  # x cross e_d = x_b e_a - x_a e_b
        for exp in top:
            if d == 2 and exp[2]:  # m e_z with z | m: the rest complement {q x}
                continue
            vp = ({}, {}, {})
            vp[a][_shift(exp, b)] = 1.0
            vp[b][_shift(exp, a)] = -1.0
            fields.append(vp)
    return fields


def _nodal_monomials(order: int) -> list:
    return [({exp: 1.0},) for exp in _exponents(order)]


def _grad(vp):
    """Gradient of a one-component polynomial field."""
    return tuple(poly_diff(vp[0], axis) for axis in range(3))


# Per family: the monomial basis of an order, and the derivative it maps.
_FAMILIES = {"edge": (_edge_monomials, vec_curl), "nodal": (_nodal_monomials, _grad)}


# --- degree-of-freedom functionals -------------------------------------------


def entity_moments(fn, corners: np.ndarray, order: int, degree: int) -> np.ndarray:
    """Tangential moments of a field on edges or faces: the edge-element DoFs.

    corners are (E, 2, 3) edge or (F, 3, 3) face vertex coordinates, and fn
    maps points (entities, g, 3) to values (entities, g, [m,] 3).  An edge
    gets ``order`` moments along v1 - v0, against 1 and 2s - 1; a face two
    constant moments, along v1 - v0 and along v2 - v0.  The rule is exact
    through ``degree``.  Returns (entities, moments[, m]).
    """
    dirs = corners[:, 1:] - corners[:, :1]
    edges = dirs.shape[1] == 1
    rule = segment_rule(degree) if edges else triangle_rule(degree)
    pts = corners[:, None, 0]  # v0 + s d0 [+ t d1], added left to right
    for axis in range(dirs.shape[1]):
        pts = pts + rule.points[:, axis, None] * dirs[:, None, axis]
    w = rule.weights
    weights = np.stack([w, w * (2.0 * rule.points[:, 0] - 1.0)])[:order] if edges else w[None]
    # Moment (k, r) takes direction k against weight r: one direction on an
    # edge, one weight on a face.
    moments = np.einsum("rg,ng...c,nkc->nkr...", weights, fn(pts), dirs)
    return moments.reshape(len(corners), -1, *moments.shape[3:])


def entity_dofs(family: str, fn, corners: np.ndarray, order: int, degree: int) -> np.ndarray:
    """The family's DoFs of a field on entities with (entities, corners, 3) corners.

    Edge family: :func:`entity_moments`.  Nodal family: the field at the
    corners' mean, a vertex or an edge midpoint, so fn maps points
    (entities, 3) to values (entities, ...).
    """
    if family == "edge":
        return entity_moments(fn, corners, order, degree)
    return fn(corners.mean(axis=1))


class Element:
    """Reference element of one family and order (see the module docstring)."""

    def __init__(self, family: str, order: int):
        self.family = family
        self.order = order
        monomials, derivative = _FAMILIES[family]
        self.monomials = monomials(order)
        self.derivatives = [derivative(m) for m in self.monomials]
        self.ndofs = len(self.monomials)
        # One column per monomial: batching them moves the edge DoFs' einsum,
        # and so the order-2 tables, at roundoff.
        self.coeff = np.linalg.inv(np.hstack([
            self.apply_functionals(lambda pts, m=m: vec_eval(m, pts)[:, None])
            for m in self.monomials]))

    def apply_functionals(self, field_fn) -> np.ndarray:
        """Apply every DoF functional to fields given by field_fn.

        field_fn maps reference points (n, 3) to values (n, m, c); the result
        has shape (ndofs, m), the DoFs in the element's order.
        """

        def fn(pts):
            vals = field_fn(pts.reshape(-1, 3))
            return vals.reshape(pts.shape[:-1] + vals.shape[1:])

        # Edge moments come as (entities, k, m), nodal values as (entities, m, 1):
        # both are k DoFs per entity, entity by entity.
        degree = 2 * self.order + 2
        return np.concatenate([
            entity_dofs(self.family, fn, REF_VERTS[local], self.order, degree)
            .reshape(k * len(local), -1)
            for k, local in zip(DOFS_PER_ENTITY[self.family, self.order], _LOCAL_ENTITIES) if k])

    def tabulate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis values (n, ndofs, c) and curls or gradients (n, ndofs, 3) at
        reference points; c is 3 for the edge family and 1 for the nodal."""
        mv = np.stack([vec_eval(m, points) for m in self.monomials], axis=1)
        md = np.stack([vec_eval(m, points) for m in self.derivatives], axis=1)
        vals = np.einsum("qjc,ji->qic", mv, self.coeff)
        derivs = np.einsum("qjc,ji->qic", md, self.coeff)
        return vals, derivs


@lru_cache(maxsize=None)
def get_element(family: str, order: int) -> Element:
    if (family, order) not in DOFS_PER_ENTITY:
        raise SpaceError(f"no {family!r} element of order {order!r}"
                         f" (supported: {sorted(DOFS_PER_ENTITY)})")
    return Element(family, order)


@lru_cache(maxsize=None)
def ref_gradient_matrix(order: int) -> np.ndarray:
    """Edge-space DoF values of the gradients of the nodal shape functions.

    Because gradients pull back to reference gradients under the covariant
    map, this one constant matrix realizes the nodal-to-edge gradient map on
    every tetrahedron of every mesh.  It is computed once per order and
    shared read-only.
    """
    edge_el = get_element("edge", order)
    nodal_el = get_element("nodal", order)
    g = edge_el.apply_functionals(lambda pts: nodal_el.tabulate(pts)[1])
    # Every true entry is a small rational (±1, ±2/3, ±1/6 or -4/3 at orders
    # 1-2), so the quadrature roundoff left in place of a zero is snapped to 0.
    g[np.abs(g) < 1e-12] = 0.0
    g.flags.writeable = False
    return g
