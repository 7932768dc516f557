"""Shape functions on the reference tetrahedron.

Two families are provided:

* ``edge``: the first-kind curl-conforming spaces of order 1 and 2,

      R_k = (P_{k-1})^3  (+)  { p homogeneous of degree k : x . p = 0 },

  with dimensions 6 and 20.  Degrees of freedom are tangential moments on
  edges (k moments per edge against 1 and 2s-1) and, for k = 2, two constant
  tangential moments per face.  The dual basis is found by inverting the
  moment matrix of an explicit monomial basis; for k = 1 this reproduces the
  classical functions lam_a grad lam_b - lam_b grad lam_a.

* ``nodal``: scalar Lagrange elements of order 1 and 2 (vertex values, plus
  edge midpoint values for order 2).

All moment functionals are written against the parametrizations

    edge (a,b):    x(s) = v_a + s (v_b - v_a),            s in [0,1],
    face (a,b,c):  x(s,t) = v_a + s (v_b - v_a) + t (v_c - v_a),

with the *unnormalized* direction vectors and the parametric measure.  These
functionals commute with the covariant pull-back of any affine map that sends
reference vertices to physical vertices in order, which is what makes a single
global degree of freedom per mesh entity well defined.  They are coded once,
in :func:`entity_moments`: the dual basis applies it to the reference tet's
edges and faces, and ``fespace.interpolate`` to the mesh's.
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

# DoFs per (vertex, edge, face) of each (family, order).  An element lists its
# DoFs type by type, in LOCAL_EDGES / LOCAL_FACES order, so 4v + 6e + 4f = ndofs.
DOFS_PER_ENTITY = {("edge", 1): (0, 1, 0), ("edge", 2): (0, 2, 2),
                   ("nodal", 1): (1, 0, 0), ("nodal", 2): (1, 1, 0)}

# --- tiny exponent-dict polynomials -----------------------------------------
# A scalar polynomial is {exponent tuple: coeff}, the exponents of (x, y, z)
# here (manufactured.py uses the same ring over cos and sin of pi x_k); a
# vector field is a 3-tuple.

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


def _poly_shift(p: Poly, axis: int) -> Poly:
    """Multiply a polynomial by the coordinate along one axis."""
    out = {}
    for exp, c in p.items():
        new = list(exp)
        new[axis] += 1
        out[tuple(new)] = c
    return out


def _edge_monomials(order: int):
    """Monomial basis of R_order as vector exponent-dict polynomials."""

    def unit(d, p=(0, 0, 0)):
        vp = ({}, {}, {})
        vp[d].update({tuple(p): 1.0})
        return vp

    def cross_x(q):
        # x cross q for vector polynomial q
        qx, qy, qz = q
        return (
            poly_sub(_poly_shift(qz, 1), _poly_shift(qy, 2)),
            poly_sub(_poly_shift(qx, 2), _poly_shift(qz, 0)),
            poly_sub(_poly_shift(qy, 0), _poly_shift(qx, 1)),
        )

    X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    if order == 1:
        consts = [unit(d) for d in range(3)]
        rots = [cross_x(unit(d)) for d in range(3)]
        return consts + rots
    if order == 2:
        p1 = [unit(d, p) for d in range(3) for p in [(0, 0, 0), X, Y, Z]]
        # x cross (f e_d) for the eight monomials f e_d spanning a complement
        # of the radial kernel span{x} in homogeneous degree-1 vector fields.
        homo = [cross_x(unit(0, f)) for f in (X, Y, Z)]
        homo += [cross_x(unit(1, f)) for f in (X, Y, Z)]
        homo += [cross_x(unit(2, f)) for f in (X, Y)]
        return p1 + homo
    raise SpaceError(f"edge family supports orders 1 and 2, got {order}")


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


class EdgeElement:
    """Curl-conforming reference element of order 1 or 2."""

    def __init__(self, order: int):
        self.order = order
        self.monomials = _edge_monomials(order)
        self.ndofs = len(self.monomials)
        V = np.empty((self.ndofs, self.ndofs))
        for j, mono in enumerate(self.monomials):
            V[:, j] = self.apply_functionals(lambda pts, m=mono: vec_eval(m, pts)[:, None, :])[:, 0]
        self.coeff = np.linalg.inv(V)

    def apply_functionals(self, field_fn) -> np.ndarray:
        """Apply every DoF functional to fields given by field_fn.

        field_fn maps reference points (n, 3) to values (n, m, 3); the result
        has shape (ndofs, m): the edge moments, then (order 2) the face ones.
        """

        def fn(pts):
            vals = field_fn(pts.reshape(-1, 3))
            return vals.reshape(pts.shape[:2] + vals.shape[1:])

        degree = 2 * self.order + 2
        blocks = [entity_moments(fn, REF_VERTS[local], self.order, degree)
                  for k, local in zip(DOFS_PER_ENTITY["edge", self.order][1:],
                                      (LOCAL_EDGES, LOCAL_FACES)) if k]
        return np.concatenate([b.reshape(-1, b.shape[-1]) for b in blocks])

    def tabulate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis values and curls at reference points: two (n, ndofs, 3) arrays."""
        mv = np.stack([vec_eval(m, points) for m in self.monomials], axis=1)
        mc = np.stack([vec_eval(vec_curl(m), points) for m in self.monomials], axis=1)
        vals = np.einsum("qjc,ji->qic", mv, self.coeff)
        curls = np.einsum("qjc,ji->qic", mc, self.coeff)
        return vals, curls


class NodalElement:
    """Scalar Lagrange reference element of order 1 or 2."""

    def __init__(self, order: int):
        if order not in (1, 2):
            raise SpaceError(f"nodal family supports orders 1 and 2, got {order}")
        self.order = order
        self.ndofs = 4 if order == 1 else 10

    @staticmethod
    def _bary(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        lam = np.stack([1.0 - x - y - z, x, y, z], axis=-1)
        dlam = np.array(
            [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        return lam, dlam

    def tabulate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis values (n, ndofs) and gradients (n, ndofs, 3)."""
        lam, dlam = self._bary(points)
        n = points.shape[0]
        if self.order == 1:
            vals = lam
            grads = np.broadcast_to(dlam, (n, 4, 3)).copy()
            return vals, grads
        vals = np.empty((n, 10))
        grads = np.empty((n, 10, 3))
        for v in range(4):
            vals[:, v] = lam[:, v] * (2.0 * lam[:, v] - 1.0)
            grads[:, v, :] = (4.0 * lam[:, v] - 1.0)[:, None] * dlam[v]
        for e, (a, b) in enumerate(LOCAL_EDGES):
            vals[:, 4 + e] = 4.0 * lam[:, a] * lam[:, b]
            grads[:, 4 + e, :] = 4.0 * (
                lam[:, a][:, None] * dlam[b] + lam[:, b][:, None] * dlam[a]
            )
        return vals, grads


@lru_cache(maxsize=None)
def get_element(family: str, order: int):
    if family == "edge":
        return EdgeElement(order)
    if family == "nodal":
        return NodalElement(order)
    raise SpaceError(f"unknown family {family!r} (expected 'edge' or 'nodal')")


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

